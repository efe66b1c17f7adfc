import gc
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hyperspec.cli import main
from hyperspec.suite import DEFAULT_SUITE, TRACE_CHECKS, load_algebra, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLaws:
    def test_builtin_k_passes(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "builtin:K")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["kind"] == "hyperring"

    def test_builtin_s_passes(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "builtin:S")
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("spec", ["builtin:Z", "builtin:k", "builtin:"])
    def test_unknown_builtin_exits_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "laws", spec)
        assert (code, out) == (2, "")
        assert err == f"input error: unknown builtin table {spec!r}; expected builtin:K or builtin:S\n"

    def test_corrupted_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "laws", str(bad))
        assert code == 2
        assert "input error" in err

    def test_table_file_roundtrip(self, tmp_path, capsys):
        from hyperspec.hyperkernel import krasner_hyperfield

        path = tmp_path / "k.json"
        path.write_text(json.dumps(krasner_hyperfield().to_json()))
        code, out, _ = run_cli(capsys, "laws", str(path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_failing_table_exits_1(self, tmp_path, capsys):
        doc = {
            "carrier": ["0", "1"],
            "op": {"0,0": ["0"], "0,1": ["1"], "1,0": ["1"], "1,1": ["1"]},
        }
        path = tmp_path / "bad_group.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "laws", str(path))
        assert code == 1
        rep = json.loads(out)["report"]
        assert rep["inverses_unique"]["pass"] is False
        assert rep["inverses_unique"]["witness"]

    @pytest.mark.parametrize("with_mul", [False, True], ids=["hypergroup", "hyperring"])
    def test_comma_in_carrier_label_exits_2(self, tmp_path, capsys, with_mul):
        from hyperspec.hyperkernel import krasner_hyperfield

        doc = krasner_hyperfield().to_json()
        doc["carrier"] = ["0", "a,b"]
        doc["op"] = {k.replace("1", "a,b"): [v.replace("1", "a,b") for v in vs] for k, vs in doc["op"].items()}
        doc["mul"] = {k.replace("1", "a,b"): v.replace("1", "a,b") for k, v in doc["mul"].items()}
        doc["one"] = "a,b"
        if not with_mul:
            doc = {"carrier": doc["carrier"], "op": doc["op"]}
        path = tmp_path / "comma.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "laws", str(path))
        assert code == 2
        assert out == ""
        assert "carrier label 'a,b' contains ','" in err


def _k_doc(with_mul=True):
    from hyperspec.hyperkernel import krasner_hyperfield

    doc = krasner_hyperfield().to_json()
    return doc if with_mul else {"carrier": doc["carrier"], "op": doc["op"]}


class TestTableValidation:
    """Malformed table JSON exits 2 with a message that names the key or
    label at fault, where it was read loosely or ignored before."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(carrier="01"), "table 'carrier' must be a non-empty array of labels, got str"),
            (lambda d: d.update(carrier=[]), "table 'carrier' must be a non-empty array of labels, got list"),
            (lambda d: d.update(op={}, carrier=[]), "table 'carrier' must be a non-empty array of labels, got list"),
            (lambda d: d["op"].update({"1,1": "01"}), "table 'op' value at '1,1' must be an array of labels, got str"),
            (lambda d: d.update(op=[]), "table 'op' must be an object keyed 'a,b', got list"),
            (lambda d: d["op"].update({"2,2": ["0"]}), "table 'op' key '2,2' is not a pair 'a,b' of carrier labels"),
            (lambda d: d["op"].update({"1,1,": ["0"]}), "table 'op' key '1,1,' is not a pair 'a,b' of carrier labels"),
            (lambda d: d["op"].update({"1,1": ["0", "7"]}), "value '7' of (1,1) is not a carrier label"),
            (lambda d: d.pop("carrier"), "table JSON has no 'carrier' key"),
            (lambda d: d.pop("op"), "table JSON has no 'op' key"),
        ],
    )
    @pytest.mark.parametrize("with_mul", [False, True], ids=["hypergroup", "hyperring"])
    def test_exits_2_naming_the_fault(self, tmp_path, capsys, edit, message, with_mul):
        doc = _k_doc(with_mul)
        edit(doc)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        for mode in ("canonical", "marty"):
            assert run_cli(capsys, "laws", str(path), "--mode", mode) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.update({"2,2": "0"}), "table 'mul' key '2,2' is not a pair 'a,b' of carrier labels"),
            (lambda m: m.update({"1,1": "7"}), "product '7' of (1,1) is not a carrier label"),
            (lambda m: m.pop("0,1"), "multiplication is not total: missing (0,1)"),
        ],
    )
    def test_bad_multiplication_exits_2(self, tmp_path, capsys, edit, message):
        doc = _k_doc()
        edit(doc["mul"])
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "laws", str(path)) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({k: v for k, v in _k_doc().items() if k != "zero"}, "table JSON has no 'zero' key"),
            ({k: v for k, v in _k_doc().items() if k != "one"}, "table JSON has no 'one' key"),
            ([], "table JSON must be an object with 'carrier' and 'op' keys, got list"),
            ("mul", "table JSON must be an object with 'carrier' and 'op' keys, got str"),
            (5, "table JSON must be an object with 'carrier' and 'op' keys, got int"),
        ],
    )
    def test_top_level_faults_exit_2(self, tmp_path, capsys, doc, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "laws", str(path)) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize("mode", ["strong", "marty"])
    @pytest.mark.parametrize("spec", ["builtin:K", "builtin:S", "file"])
    def test_hyperring_needs_canonical_mode(self, tmp_path, capsys, spec, mode):
        if spec == "file":
            spec = str(tmp_path / "k.json")
            Path(spec).write_text(json.dumps(_k_doc()))
        message = f"input error: hyperring tables are checked in canonical mode only, got --mode {mode}\n"
        assert run_cli(capsys, "laws", spec, "--mode", mode) == (2, "", message)
        assert run_cli(capsys, "laws", spec, "--mode", "canonical")[0] == 0

    def test_empty_carrier_rejected_by_table(self):
        from hyperspec.hyperkernel import HyperTable

        with pytest.raises(ValueError, match="carrier must not be empty"):
            HyperTable([], {})


def _json_values():
    scalars = st.none() | st.booleans() | st.integers(-3, 9) | st.sampled_from(["", "0", "1", "-1", "7", "0,1", "01"])
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["0", "1", "0,0", "1,1", "0,1", "2,2", "carrier"]), inner, max_size=3), max_leaves=6)


@st.composite
def _mutated_table(draw):
    """A K or S table document with one to three random edits: a top-level
    key set or deleted, an entry of op or mul set or deleted, or a carrier
    label replaced, added or dropped."""
    from hyperspec.hyperkernel import krasner_hyperfield, sign_hyperfield

    doc = draw(st.sampled_from([krasner_hyperfield, sign_hyperfield]))().to_json()
    if draw(st.booleans()):
        doc = {"carrier": doc["carrier"], "op": doc["op"]}
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(["top", "op", "mul", "op", "mul", "carrier"]))
        own = [str(c) for c in doc["carrier"]] if isinstance(doc.get("carrier"), list) else []
        labels = own * 4 + ["0", "1", "-1", "7"]
        if target == "top":
            key = draw(st.sampled_from(["carrier", "op", "mul", "zero", "one"]))
            if draw(st.booleans()):
                doc.pop(key, None)
            else:
                doc[key] = draw(_json_values() | st.sampled_from(labels))
        elif target in ("op", "mul") and isinstance(doc.get(target), dict):
            key = f"{draw(st.sampled_from(labels))},{draw(st.sampled_from(labels))}"
            if draw(st.booleans()):
                doc[target].pop(key, None)
            else:
                value = st.lists(st.sampled_from(labels), max_size=3) if target == "op" else st.sampled_from(labels)
                doc[target][key] = draw(value | _json_values())
        elif target == "carrier" and isinstance(doc.get("carrier"), list):
            carrier = doc["carrier"]
            action = draw(st.sampled_from(["replace", "add", "drop"]))
            if action == "add":
                carrier.append(draw(st.sampled_from(labels) | _json_values()))
            elif carrier:
                i = draw(st.integers(0, len(carrier) - 1))
                if action == "drop":
                    del carrier[i]
                else:
                    carrier[i] = draw(st.sampled_from(labels) | _json_values())
    return doc


class TestTableFuzz:
    @given(_mutated_table(), st.sampled_from(["strong", "marty", "canonical"]))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exit_0_or_1_with_report_or_2_with_one_line(self, doc, mode):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.json"
            path.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["laws", str(path), "--mode", mode])
        if code in (0, 1):
            assert err.getvalue() == ""
            report = json.loads(out.getvalue())
            assert report["ok"] is (code == 0) and report["report"]
        else:
            assert code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("input error: ") and err.getvalue().count("\n") == 1


@st.composite
def _mutated_suite(draw):
    """A suite config over mu:3:2 with one to three random edits: a top-level
    key set or deleted, an entry of a list added, replaced or dropped, or the
    whole document replaced. "OUT" stands for a file in a fresh directory;
    no other string is drawn as an output path, so no run writes elsewhere."""
    doc = {"algebras": ["mu:3:2"], "checks": ["identity_law", "nonempty"], "output": "OUT", "verbosity": 1}
    algebras = st.sampled_from(["mu:3:2", "mu:3:x", "mu:2:2", "mu:4:2", "nope:3:2", "missing.json"])
    names = st.sampled_from([*TRACE_CHECKS[:3], "bogus", ""])
    outputs = st.sampled_from(["OUT", "OUT/no/x.json", ""]) | st.none() | st.integers(-1, 2) | st.lists(st.just("OUT"))
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(["top", "top", "algebras", "checks", "whole"]))
        if target == "whole":
            doc = draw(_json_values())
        elif not isinstance(doc, dict):
            continue
        elif target == "top":
            key = draw(st.sampled_from(["algebras", "checks", "output", "verbosity"]))
            if draw(st.booleans()):
                doc.pop(key, None)
            elif key == "output":
                doc[key] = draw(outputs)
            else:
                value = {"algebras": algebras, "checks": names}.get(key, st.integers(-1, 2))
                doc[key] = draw(_json_values() | st.lists(value, max_size=2) | value)
        elif isinstance(doc.get(target), list):
            entries = doc[target]
            action = draw(st.sampled_from(["replace", "add", "drop"]))
            entry = draw((algebras if target == "algebras" else names) | _json_values())
            if action == "add":
                entries.append(entry)
            elif entries:
                i = draw(st.integers(0, len(entries) - 1))
                if action == "drop":
                    del entries[i]
                else:
                    entries[i] = entry
    return doc


class TestSuiteFuzz:
    @given(_mutated_suite())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exit_0_or_1_with_report_or_2_with_one_line(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "suite.json"
            path.write_text(json.dumps(doc).replace('"OUT', json.dumps(str(Path(tmp) / "out.json"))[:-1]))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["verify", "--suite", str(path)])
        if code in (0, 1):
            report = json.loads(out.getvalue())
            assert report["ok"] is (code == 0) and report["suite"]
            assert all(line.endswith((": PASS", ": FAIL")) for line in err.getvalue().splitlines())
        else:
            assert code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("input error: ") and err.getvalue().count("\n") == 1


def _mu32_doc():
    from hyperspec.hopfkernel import parse_builtin

    return parse_builtin("mu:3:2").to_json()


class TestAlgebraJson:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: [d], "algebra JSON must be an object, got list"),
            (lambda d: "mu:3:2", "algebra JSON must be an object, got str"),
            (lambda d: {"p": 3}, "algebra JSON has no 'basis' key"),
            (lambda d: {k: v for k, v in d.items() if k != "antipode"}, "algebra JSON has no 'antipode' key"),
            (lambda d: {**d, "p": "3"}, "algebra JSON 'p' must be an integer, got '3'"),
            (lambda d: {**d, "p": 9}, "9 is not prime"),
            (lambda d: {**d, "basis": "1t"}, "algebra JSON 'basis' must be a nonempty list of strings, got '1t'"),
            (lambda d: {**d, "basis": []}, "algebra JSON 'basis' must be a nonempty list of strings, got []"),
            (lambda d: {**d, "delta": "x"}, "algebra JSON 'delta' must be a 2 x 4 array of integers"),
            (lambda d: {**d, "delta": d["delta"][:1]}, "algebra JSON 'delta' must be a 2 x 4 array of integers"),
            (lambda d: {**d, "mul": [[[1, 0], [0, 1]], [[0, 1], [1]]]}, "algebra JSON 'mul' must be a 2 x 2 x 2 array of integers"),
            (lambda d: {**d, "unit": [1, 0.0]}, "algebra JSON 'unit' entries must be integers, got 0.0"),
            (lambda d: {**d, "counit": [1, True]}, "algebra JSON 'counit' entries must be integers, got True"),
            (lambda d: {**d, "antipode": [[1, 0], [0, "1"]]}, "algebra JSON 'antipode' entries must be integers, got '1'"),
            (lambda d: {**d, "generator": [0, None]}, "algebra JSON 'generator' entries must be integers, got None"),
            (lambda d: {**d, "generator": [1, 0]}, "algebra 'generator' does not generate the algebra: its powers span 1 of 2 dimensions"),
            (lambda d: {**d, "name": 5}, "algebra JSON 'name' must be a string, got 5"),
        ],
    )
    def test_exits_2_naming_the_fault(self, tmp_path, capsys, edit, message):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(edit(_mu32_doc())))
        assert run_cli(capsys, "hyperop", str(path)) == (2, "", f"input error: {message}\n")
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": [str(path)]}))
        assert run_cli(capsys, "verify", "--suite", str(cfg)) == (2, "", f"input error: {message}\n")

    def test_non_associative_constants_exit_2(self, tmp_path, capsys):
        """mu:3:3 with t·t2 = 1 + t, still commutative with the same unit:
        (t·t)·t2 = t2·t2 = t but t·(t·t2) = t + t2."""
        from hyperspec.hopfkernel import parse_builtin

        doc = parse_builtin("mu:3:3").to_json()
        doc["mul"][1][2] = doc["mul"][2][1] = [1, 1, 0]
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        message = "input error: multiplication is not associative at basis triple (1,1,2)\n"
        assert run_cli(capsys, "hyperop", str(path)) == (2, "", message)
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": [str(path)]}))
        assert run_cli(capsys, "verify", "--suite", str(cfg)) == (2, "", message)

    def test_entries_are_residues_of_any_integer(self, tmp_path, capsys):
        # entries are reduced mod p as Python ints, so no entry overflows int64
        doc = _mu32_doc()
        want = run_cli(capsys, "hyperop", "mu:3:2")
        doc["delta"] = [[c + 3 * 2**70 for c in row] for row in doc["delta"]]
        doc["mul"][0][0][0] -= 3 * 2**80
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "hyperop", str(path)) == want

    def test_generator_that_is_no_power_basis_generator(self, tmp_path, capsys):
        """mu:5:4 with generator 2t, which generates the algebra but is not
        the basis vector t: ideals print as echelon bases, not as
        polynomials in t read off the basis names."""
        from hyperspec.hopfkernel import parse_builtin

        doc = parse_builtin("mu:5:4").to_json()
        doc["generator"] = [0, 2, 0, 0]
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": [str(path)]}))
        code, out, _ = run_cli(capsys, "verify", "--suite", str(cfg))
        checks = json.loads(out)["suite"][0]["checks"]
        assert code == 0 and checks["descent_compatibility"]["detail"]["ideal"] == "0"
        pairs = checks["preimage_primality"]["detail"]["pairs"]
        # every pair ideal is the kernel of a degree-1 point: 3 echelon rows
        assert len(pairs) == 16 and all(entry["prime"] and len(entry["ideal"]) == 3 for entry in pairs)


@st.composite
def _mutated_algebra(draw):
    """mu:3:2's Hopf data as JSON with one to three random edits: a top-level
    key set or deleted, an entry of mul, unit, delta, counit, antipode or
    generator replaced, a row of one added or dropped at some depth, or the
    whole document replaced."""
    doc = _mu32_doc()
    keys = ["mul", "unit", "delta", "counit", "antipode", "generator", "p", "basis", "name"]
    entries = st.integers(-3, 9) | st.sampled_from([2**64, -(2**70)]) | _json_values()
    tops = entries | st.sampled_from([2, 5, 4, 2**61 - 1]) | st.lists(st.sampled_from(["1", "t", ""]), max_size=3)
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(["top", "entry", "entry", "row", "whole"]))
        if target == "whole":
            doc = draw(_json_values())
        elif not isinstance(doc, dict):
            continue
        elif target == "top":
            key = draw(st.sampled_from(keys))
            if draw(st.booleans()):
                doc.pop(key, None)
            else:
                doc[key] = draw(tops)
        else:
            node = doc.get(draw(st.sampled_from(keys[:6])))
            while isinstance(node, list) and node and isinstance(node[0], list) and (target == "entry" or draw(st.booleans())):
                node = node[draw(st.integers(0, len(node) - 1))]
            if not isinstance(node, list) or not node:
                continue
            i = draw(st.integers(0, len(node) - 1))
            if target == "entry":
                node[i] = draw(entries)
            elif draw(st.booleans()):
                del node[i]
            else:
                node.append(json.loads(json.dumps(node[i])))
    return doc


class TestAlgebraFuzz:
    @given(_mutated_algebra(), st.sampled_from(["hyperop", "verify"]))
    @example({**_mu32_doc(), "generator": [1, 0]}, "hyperop")
    @example({**_mu32_doc(), "generator": [0, 0]}, "verify")
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exit_0_or_1_with_report_or_2_with_one_line(self, doc, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "alg.json"
            path.write_text(json.dumps(doc))
            argv = ["hyperop", str(path)]
            if command == "verify":
                cfg = Path(tmp) / "suite.json"
                cfg.write_text(json.dumps({"algebras": [str(path)]}))
                argv = ["verify", "--suite", str(cfg)]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        if code in (0, 1):
            assert err.getvalue() == ""
            report = json.loads(out.getvalue())
            assert report["table"] if command == "hyperop" else report["ok"] is (code == 0)
            if command == "hyperop":  # a generator that does not generate would repeat labels
                assert len(set(report["points"])) == len(report["points"])
        else:
            assert code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("input error: ") and err.getvalue().count("\n") == 1


def _p2_algebra_file(tmp_path):
    """mu:3:2's Hopf data with the base field changed to F_2."""
    from hyperspec.hopfkernel import parse_builtin

    doc = parse_builtin("mu:3:2").to_json()
    doc["p"] = 2
    doc["mul"] = [[[c % 2 for c in row] for row in plane] for plane in doc["mul"]]
    doc["delta"] = [[c % 2 for c in row] for row in doc["delta"]]
    doc["antipode"] = [[c % 2 for c in row] for row in doc["antipode"]]
    doc.pop("name", None)
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(doc))
    return path


def _broken_antipode_suite(tmp_path, checks):
    """A suite config over mu:5:4 with its antipode replaced by the identity,
    which breaks the antipode law."""
    from hyperspec.hopfkernel import parse_builtin

    doc = parse_builtin("mu:5:4").to_json()
    doc["antipode"] = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"algebras": [str(path)], "checks": checks}))
    return cfg


class TestCharacteristicTwo:
    def test_load_algebra_rejects_p2(self, tmp_path):
        with pytest.raises(ValueError, match="odd prime"):
            load_algebra(str(_p2_algebra_file(tmp_path)))

    def test_hyperop_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "hyperop", str(_p2_algebra_file(tmp_path)))
        assert code == 2
        assert "odd prime" in err

    def test_verify_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": [str(_p2_algebra_file(tmp_path))]}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(cfg))
        assert code == 2
        assert "odd prime" in err


class TestPrimeBeyondInt64:
    """p = 2^61 - 1 is prime, but (p-1)^2 >= 2^63: every entry point rejects
    it with the bound, before any trial division."""

    P = 2**61 - 1
    MESSAGE = f"input error: p = {P} is too large: int64 arithmetic needs (p-1)^2 < 2^63\n"

    def test_line_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "line", "--p", str(self.P), "--law", "add", "--max-degree", "1")
        assert (code, out, err) == (2, "", self.MESSAGE)

    def test_algebra_json_exits_2(self, tmp_path, capsys):
        from hyperspec.hopfkernel import parse_builtin

        doc = parse_builtin("mu:3:2").to_json()
        doc["p"] = self.P
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "hyperop", str(path)) == (2, "", self.MESSAGE)
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": [str(path)]}))
        assert run_cli(capsys, "verify", "--suite", str(cfg)) == (2, "", self.MESSAGE)


class TestHyperop:
    def test_mu54_table_matches_group(self, capsys):
        code, out, _ = run_cli(capsys, "hyperop", "mu:5:4")
        assert code == 0
        doc = json.loads(out)
        points = doc["points"]
        assert sorted(points) == ["(T-1)", "(T-2)", "(T-3)", "(T-4)"]
        for i, f in enumerate(points):
            for j, g in enumerate(points):
                a = int(f[3:-1])
                b = int(g[3:-1])
                assert doc["table"][i][j] == [f"(T-{a * b % 5})"]

    def test_pair_query(self, capsys):
        code, out, _ = run_cli(capsys, "hyperop", "addetale:3:2", "--pair", "(T^2+1)", "(T^2+1)")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == ["(T)", "(T^2+1)"]

    def test_mu32_is_z2(self, capsys):
        code, out, _ = run_cli(capsys, "hyperop", "mu:3:2")
        doc = json.loads(out)
        assert code == 0
        table = {(f, g): cell for f, row in zip(doc["points"], doc["table"]) for g, cell in zip(doc["points"], row)}
        assert table[("(T-1)", "(T-1)")] == ["(T-1)"]
        assert table[("(T-2)", "(T-2)")] == ["(T-1)"]
        assert table[("(T-1)", "(T-2)")] == ["(T-2)"]

    def test_unknown_pair_label_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "hyperop", "mu:5:4", "--pair", "(T-7)", "(T-1)")
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("spec, message", [("mu:3:0", "n must be >= 1"), ("addetale:3:0", "k must be >= 1")])
    def test_empty_builtin_exits_2(self, capsys, spec, message):
        assert run_cli(capsys, "hyperop", spec) == (2, "", f"input error: {message}\n")

    def test_bad_algebra_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "hyperop", "mu:4:4")
        assert code == 2

    @pytest.mark.parametrize(
        "spec, dim",
        [("mu:3:100000", "100000"), ("mu:3:513", "513"), ("addetale:3:9", "3^9"), ("addetale:3:6", "3^6"),
         ("addetale:3:1000000000000", "3^1000000000000")],
    )
    def test_builtin_past_the_dimension_bound_exits_2_before_any_array(self, capsys, monkeypatch, spec, dim):
        # addetale:3:9 ran past 20 s in power_basis_tensor, growing past 3 GB,
        # and mu:3:100000 exited 2 only because numpy could not allocate
        # 149 GiB at once
        from hyperspec import hopfkernel

        def forbidden(*args):
            raise AssertionError("an algebra was built")

        monkeypatch.setattr(hopfkernel, "mu_hopf", forbidden)
        monkeypatch.setattr(hopfkernel, "additive_etale_hopf", forbidden)
        message = f"algebra spec {spec!r} has dimension {dim}, above the builtin bound 512"
        assert run_cli(capsys, "hyperop", spec) == (2, "", f"input error: {message}\n")

    def test_dimension_100_is_within_the_bound(self):
        from hyperspec.hopfkernel import MAX_BUILTIN_DIM, parse_builtin

        assert MAX_BUILTIN_DIM**3 * 8 == 2**30  # the n^3 int64 structure tensor at 1 GiB
        assert parse_builtin("mu:101:100").dim == 100

    def test_algebra_from_json_file(self, tmp_path, capsys):
        from hyperspec.hopfkernel import parse_builtin

        path = tmp_path / "alg.json"
        path.write_text(json.dumps(parse_builtin("mu:3:2").to_json()))
        code, out, _ = run_cli(capsys, "hyperop", str(path))
        assert code == 0
        assert json.loads(out)["points"] == ["(T-2)", "(T-1)"]


class TestVerify:
    def test_largest_prime_at_dimension_1(self, tmp_path, capsys):
        """mu:2147483647:1 is F_p itself. Its one point has degree 1, so the
        classical comparison at q = p reads the root of T - 1 off instead of
        scanning all of F_p, which needed a 16 GiB array."""
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": ["mu:2147483647:1"]}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(cfg))
        assert (code, err) == (0, "")
        statuses = {name: entry["status"] for name, entry in json.loads(out)["suite"][0]["checks"].items()}
        assert statuses.pop("preimage_primality") == "report-only"
        assert set(statuses.values()) == {"pass"} and len(statuses) == 9

    def test_default_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert [r["algebra"] for r in doc["suite"]] == list(DEFAULT_SUITE)
        for rep in doc["suite"]:
            assert list(rep["checks"].keys()) == list(TRACE_CHECKS)

    def test_primality_report_entry(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        doc = json.loads(out)
        ae = next(r for r in doc["suite"] if r["algebra"] == "addetale:3:2")
        entry = ae["checks"]["preimage_primality"]
        assert entry["status"] == "report-only"
        pairs = entry["detail"]["pairs"]
        target = [e for e in pairs if e["f"] == "(T^2+1)" and e["g"] == "(T^2+1)"]
        assert target == [{"f": "(T^2+1)", "g": "(T^2+1)", "ideal": "(T^3+T)", "prime": False}]

    def test_suite_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        outp = tmp_path / "report.json"
        cfg.write_text(json.dumps({"algebras": ["mu:3:2"], "output": str(outp)}))
        code, out, _ = run_cli(capsys, "verify", "--suite", str(cfg))
        assert code == 0
        assert json.loads(outp.read_text())["ok"] is True

    def test_corrupted_algebra_fails_checks(self, tmp_path, capsys):
        cfg = _broken_antipode_suite(tmp_path, ["hopf_axioms"])
        code, out, _ = run_cli(capsys, "verify", "--suite", str(cfg))
        assert code == 1
        rep = json.loads(out)["suite"][0]
        assert rep["checks"]["hopf_axioms"]["status"] == "fail"

    def test_coproduct_killing_the_generator_fails_with_witness(self, tmp_path, capsys):
        """addetale:3:2 with Delta(t) = 0: Delta(t) splits into no terms, and
        the coproduct hom entry still fails with a witness."""
        from hyperspec.hopfkernel import parse_builtin, verify_hopf

        doc = parse_builtin("addetale:3:2").to_json()
        doc["delta"][1] = [0] * 81
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": [str(path)], "checks": ["hopf_axioms"]}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(cfg))
        assert (code, err) == (1, "")
        assert "coproduct_algebra_hom" in json.loads(out)["suite"][0]["checks"]["hopf_axioms"]["detail"]["failures"]
        assert verify_hopf(load_algebra(str(path))).checks["coproduct_algebra_hom"].witness

    def test_failing_axioms_skip_later_checks(self, tmp_path, capsys):
        cfg = _broken_antipode_suite(tmp_path, ["hopf_axioms", "preimage_primality"])
        code, out, err = run_cli(capsys, "verify", "--suite", str(cfg))
        assert (code, err) == (1, "")
        rep = json.loads(out)["suite"][0]
        assert rep["ok"] is False
        assert rep["checks"]["hopf_axioms"]["status"] == "fail"
        assert "antipode_law" in rep["checks"]["hopf_axioms"]["detail"]["failures"]
        skipped = rep["checks"]["preimage_primality"]
        assert skipped["status"] == "skipped"
        assert skipped["reason"].startswith("Hopf axioms fail: ") and "antipode_law" in skipped["reason"]
        assert rep["checks"]["identity_law"] == {"status": "skipped"}  # not selected

    def test_unknown_check_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": ["mu:3:2"], "checks": ["identity_law", "nonempty", "bogus"]}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("input error: unknown check(s) bogus;")
        assert all(name in err for name in TRACE_CHECKS)

    def test_missing_suite_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "/nonexistent/suite.json")
        assert code == 2

    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch):
        from hyperspec import cli

        runs = []
        monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: runs.append(args))
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": ["mu:3:2"], "output": str(tmp_path / "missing" / "x.json")}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("input error: cannot write output:") and "Traceback" not in err
        assert runs == []  # rejected before any algebra is loaded

    def test_output_file_equals_stdout_in_a_fresh_process(self, tmp_path):
        # both streams carry the same bytes, each ending in exactly one newline
        cfg = tmp_path / "suite.json"
        outp = tmp_path / "report.json"
        cfg.write_text(json.dumps({"algebras": ["mu:3:2", "addetale:3:1"], "output": str(outp)}))
        proc = subprocess.run([sys.executable, "-m", "hyperspec.cli", "verify", "--suite", str(cfg)], capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == outp.read_bytes()
        assert proc.stdout.endswith(b"}\n") and json.loads(proc.stdout)["ok"] is True

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_failed_write_of_the_report_exits_2(self, tmp_path, capsys):
        # /dev/full opens, so the run goes ahead, and the write of the
        # streamed report fails
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": ["mu:3:2"], "output": "/dev/full"}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("input error: cannot write output:") and "Traceback" not in err

    def test_existing_output_is_replaced(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        outp = tmp_path / "report.json"
        outp.write_text("stale report, longer than nothing\n" * 100)
        cfg.write_text(json.dumps({"algebras": ["mu:3:2"], "output": str(outp)}))
        code, out, _ = run_cli(capsys, "verify", "--suite", str(cfg))
        assert code == 0
        assert outp.read_text() == out

    @pytest.mark.parametrize("algebras", [[], None])
    def test_empty_algebra_list_exits_2(self, tmp_path, capsys, algebras):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": algebras}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"input error: suite config 'algebras' must name at least one algebra, got {algebras!r}\n"

    def test_empty_check_list_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": ["mu:3:2"], "checks": []}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(cfg))
        assert (code, out) == (2, "")
        assert err == "input error: suite config 'checks' must name at least one check, got []\n"

    @pytest.mark.parametrize("cfg_checks", [{}, {"checks": None}])
    def test_omitted_or_null_check_list_runs_every_check(self, tmp_path, capsys, cfg_checks):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": ["mu:3:2"], **cfg_checks}))
        code, out, _ = run_cli(capsys, "verify", "--suite", str(cfg))
        assert code == 0
        assert all(entry["status"] != "skipped" for entry in json.loads(out)["suite"][0]["checks"].values())

    @pytest.mark.parametrize(
        "field, value",
        [("algebras", "mu:3:2"), ("checks", "nonempty"), ("algebras", ["mu:3:2", 5]), ("checks", [["nonempty"]])],
    )
    def test_config_lists_must_hold_strings(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": ["mu:3:2"], field: value}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"input error: suite config {field!r} must be a list of strings, got {value!r}\n"

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (["mu:3:2"], "suite config must be a JSON object, got list"),
            ("mu:3:2", "suite config must be a JSON object, got str"),
            ({"algebras": ["mu:3:2"], "verbosity": "1"}, "suite config 'verbosity' must be an integer, got '1'"),
            ({"algebras": ["mu:3:2"], "verbosity": 1.5}, "suite config 'verbosity' must be an integer, got 1.5"),
            ({"algebras": ["mu:3:2"], "verbosity": True}, "suite config 'verbosity' must be an integer, got True"),
        ],
    )
    def test_malformed_config_exits_2_naming_the_fault(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(capsys, "verify", "--suite", str(path)) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize("spec", ["", "  ", "DIR"])
    def test_blank_or_directory_algebra_spec_exits_2(self, tmp_path, capsys, spec):
        spec = str(tmp_path) if spec == "DIR" else spec
        message = f"algebra spec {spec!r} is a directory, not a JSON file" if spec.strip() else f"algebra spec {spec!r} is empty"
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": [spec]}))
        assert run_cli(capsys, "verify", "--suite", str(cfg)) == (2, "", f"input error: {message}\n")
        assert run_cli(capsys, "hyperop", spec) == (2, "", f"input error: {message}\n")

    def test_config_output_must_be_a_path(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": ["mu:3:2"], "output": 5}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("input error: suite config 'output' must be a path string")

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "verify")
        _, out2, _ = run_cli(capsys, "verify")
        assert out1 == out2

    def test_timings_flag_adds_runtimes(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": ["mu:3:2"]}))
        code, out, _ = run_cli(capsys, "verify", "--suite", str(cfg), "--timings")
        assert code == 0
        rep = json.loads(out)["suite"][0]
        assert all("runtime_ms" in entry for entry in rep["checks"].values())

    def test_verbosity_prints_progress_to_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": ["mu:3:2"], "verbosity": 1}))
        code = main(["verify", "--suite", str(cfg)])
        captured = capsys.readouterr()
        assert code == 0
        assert "mu:3:2: PASS" in captured.err
        json.loads(captured.out)  # stdout stays pure JSON


class TestLine:
    def test_additive_crosscheck(self, capsys):
        code, out, _ = run_cli(capsys, "line", "--p", "3", "--law", "add", "--max-degree", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        assert doc["laws"]["identity"] is True

    def test_p2_rejected(self, capsys):
        code, _, err = run_cli(capsys, "line", "--p", "2", "--law", "add", "--max-degree", "2")
        assert code == 2
        assert "odd prime" in err

    def test_bad_degree_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "line", "--p", "3", "--law", "add", "--max-degree", "0")
        assert code == 2

    @pytest.mark.parametrize("p, degree", [("1000003", "1"), ("3", "7")])
    def test_oversize_input_rejected_before_enumeration(self, capsys, p, degree):
        code, out, err = run_cli(capsys, "line", "--p", p, "--law", "add", "--max-degree", degree)
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and "more than 500 points" in err

    @pytest.mark.parametrize("degree", ["5", "6"])
    def test_field_past_f_3_12_rejected_in_a_fresh_process(self, degree):
        # 80 and 196 points pass the point bound, but N = lcm(1..degree) = 60:
        # building F_{3^60} never finished, so the run must stop at the check
        proc = subprocess.run(
            [sys.executable, "-m", "hyperspec.cli", "line", "--p", "3", "--law", "add", "--max-degree", degree],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("input error: ") and "= 60 > 12" in proc.stderr


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperspec.cli", "laws", "builtin:K"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    def test_closed_stdout_exits_141_without_a_traceback(self):
        # the report is far larger than a pipe's buffer, so the writer meets
        # the closed pipe mid-document
        proc = subprocess.Popen(
            [sys.executable, "-m", "hyperspec.cli", "line", "--p", "7", "--law", "add", "--max-degree", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1]
        assert (proc.returncode, first, err) == (141, b"{\n", b"")

    @pytest.mark.parametrize(
        "argv",
        [
            ["hyperop", "addetale:3:2"],
            ["line", "--p", "3", "--law", "mul", "--max-degree", "2"],
        ],
    )
    def test_fresh_process_byte_determinism(self, argv):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "hyperspec.cli", *argv], capture_output=True, text=True
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0]  # nonempty JSON


class TestCollectorFreeze:
    """The command line freezes its import-time heap once, so that no
    collection walks numpy's and hyperspec's module objects again; the
    library leaves the collector alone, and garbage made later is
    collected as before."""

    def test_cli_import_freezes_with_the_collector_on(self):
        assert gc.isenabled()
        assert gc.get_freeze_count() > 0

    def test_only_the_cli_import_freezes_in_a_fresh_process(self):
        code = (
            "import gc, hyperspec, hyperspec.specops, hyperspec.galoisline; lib = gc.get_freeze_count();"
            " import hyperspec.cli; print(lib, gc.get_freeze_count(), gc.isenabled())"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        lib, cli, enabled = proc.stdout.split()
        assert (proc.returncode, lib, enabled) == (0, "0", "True")
        assert int(cli) > 0

    def test_a_run_freezes_nothing(self, capsys):
        frozen = gc.get_freeze_count()
        assert run_cli(capsys, "verify")[0] == 0
        assert gc.get_freeze_count() == frozen

    def test_a_cycle_made_after_the_import_is_collected(self):
        class Node:
            pass

        node = Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        gc.collect()
        assert ref() is None


class TestRecordOnce:
    def test_verify_hopf_runs_once_per_object(self, monkeypatch):
        from hyperspec import hopfkernel

        calls = []
        original = hopfkernel.verify_hopf

        def counted(h):
            calls.append(h)
            return original(h)

        # every binding, so a call through suite or any other module is counted
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hyperspec" and getattr(module, "verify_hopf", None) is original:
                monkeypatch.setattr(module, "verify_hopf", counted)
        result = run_suite(["mu:3:2", "addetale:3:2"])
        assert result["ok"] is True
        assert sorted(h.name for h in calls) == ["addetale:3:2", "addetale:3:2/I", "mu:3:2", "mu:3:2/I"]
        assert len({id(h) for h in calls}) == len(calls)

    def test_preimage_once_per_pair(self, monkeypatch):
        """Filling the cube takes no nullspace, a pair with one member takes
        none (its forced-zero ideal is the member's kernel), and each member
        set with several members takes exactly one, however many pairs share
        it. A full suite builds no per-pair matrix Q_fg (it reads the pair
        maps formed once per algebra) and takes no nullspace of them."""
        from hyperspec import linalg, specops, suite

        kernels, loaded = [], []
        original = linalg.nullspace

        def nullspace(mat, p):
            kernels.append(mat)
            return original(mat, p)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hyperspec" and getattr(module, "nullspace", None) is original:
                monkeypatch.setattr(module, "nullspace", nullspace)
        load = suite.load_algebra

        def load_and_keep(spec):
            loaded.append(load(spec))
            return loaded[-1]

        monkeypatch.setattr(suite, "load_algebra", load_and_keep)

        h = load("addetale:3:2")
        pts = specops.kpoints(h)  # the spectrum takes nullspaces of its own
        kernels.clear()
        specops.hyperop_cube(h)
        assert kernels == []
        seen = set()
        for f, g in product(pts, repeat=2):
            before = len(kernels)
            members = tuple(m.index for m in specops.hyperop(h, f, g).members)
            new_set = len(members) > 1 and members not in seen
            assert len(kernels) - before == new_set, (f.label, g.label)
            if len(members) > 1:
                seen.add(members)
        assert len(seen) > 1  # addetale:3:2 has several member sets with two members

        pair_matrices = []
        pair_quotient = specops._pair_quotient_matrix

        def pair_quotient_and_keep(h, f, g):
            pair_matrices.append(pair_quotient(h, f, g))
            return pair_matrices[-1]

        monkeypatch.setattr(specops, "_pair_quotient_matrix", pair_quotient_and_keep)
        kernels.clear()
        result = run_suite(["mu:3:2", "addetale:3:2"])
        assert result["ok"] is True
        assert pair_matrices == []
        assert kernels
        for h in loaded:
            assert "pair_quotient" not in h._cache
            maps = h._cache["pair_maps"]
            assert not any(np.shares_memory(mat, maps) for mat in kernels)


class TestLineGolden:
    # The `line` runs of the benchmark workload of the same name, with the
    # SHA-256 of each stdout, so any change to either engine's output fails here.
    RUNS = {
        ("3", "add", "3"): "0b54b636e49e58a02510be2cd5a1d2e35ec967315e4dfa055f2e895e20c5f0df",
        ("3", "mul", "3"): "1b11278504df10ed72757e23a9510132db72ff09bc026022bf06d528ac38e94a",
        ("7", "add", "2"): "69ce245868d4dceca46808b9769c8cfc648afbc938eab1228aa6ae34be36ad5b",
        ("7", "mul", "2"): "1954ac74ded17a7a7efebd59b42a55b469224cbf42496e781e114ad5a4e773f6",
    }

    @pytest.mark.parametrize("p, law, degree", list(RUNS))
    def test_stdout_digest(self, capsys, p, law, degree):
        code, out, _ = run_cli(capsys, "line", "--p", p, "--law", law, "--max-degree", degree)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.RUNS[(p, law, degree)]


class TestLinePlainGolden:
    # `line --plain`, the text summary, pinned by the SHA-256 of its stdout
    RUNS = {
        ("3", "add", "3"): "97a78a7d550a5eb289f2c250695f4fe62e3d6a4c0c2acae997631ff4a86e0ce0",
        ("7", "mul", "2"): "0cd4954ab4da77deef92d7965dcb69627b1050f71433d8441b219799acf6d29b",
    }

    @pytest.mark.parametrize("p, law, degree", list(RUNS))
    def test_stdout_digest(self, capsys, p, law, degree):
        code, out, _ = run_cli(capsys, "line", "--p", p, "--law", law, "--max-degree", degree, "--plain")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.RUNS[(p, law, degree)]


class TestPlainText:
    # the --plain renderings of verify, hyperop and laws, as exact text
    VERIFY_CHECKS = """\
  hopf_axioms              pass
  identity_law             pass
  inverse_law              pass
  reversibility            pass
  weak_associativity       pass
  nonempty                 pass
  classical_comparison     pass
  descent_compatibility    pass
  kernel_containment       pass
  preimage_primality       report-only
"""

    def test_default_verify(self, capsys):
        want = "".join(f"{spec}: PASS\n{self.VERIFY_CHECKS}" for spec in ("mu:3:2", "mu:5:4", "addetale:3:1", "addetale:3:2"))
        assert run_cli(capsys, "verify", "--plain") == (0, want, "")

    def test_failing_axioms_and_skipped_checks(self, tmp_path, capsys):
        # mu:5:4 with the identity as antipode: every check after the Hopf
        # axioms is skipped
        cfg = _broken_antipode_suite(tmp_path, None)
        want = "mu:5:4: FAIL\n  hopf_axioms              fail\n" + "".join(
            f"  {name:<24} skipped\n" for name in TRACE_CHECKS[1:]
        )
        assert run_cli(capsys, "verify", "--suite", str(cfg), "--plain") == (1, want, "")

    def test_hyperop_table(self, capsys):
        want = """\
hyperoperation table for mu:5:4 (rows * columns)
(T-4)   | (T-1)  (T-2)  (T-3)  (T-4)
(T-3)   | (T-2)  (T-4)  (T-1)  (T-3)
(T-2)   | (T-3)  (T-1)  (T-4)  (T-2)
(T-1)   | (T-4)  (T-3)  (T-2)  (T-1)
"""
        assert run_cli(capsys, "hyperop", "mu:5:4", "--plain") == (0, want, "")

    def test_laws_of_k(self, capsys):
        want = """\
builtin:K: PASS
  additive_canonical_hypergroup      ok
  multiplicative_monoid              ok
  distributivity                     ok
  zero_absorbs                       ok
  zero_not_one                       ok
  hyperfield                         ok
"""
        assert run_cli(capsys, "laws", "builtin:K", "--plain") == (0, want, "")

    def test_bare_pair_labels_equal_the_parenthesized_form(self, capsys):
        bare = run_cli(capsys, "hyperop", "mu:5:4", "--pair", "T-1", "T-2")
        assert bare == run_cli(capsys, "hyperop", "mu:5:4", "--pair", "(T-1)", "(T-2)")
        assert bare[0] == 0 and json.loads(bare[1])["result"] == ["(T-2)"]
        assert run_cli(capsys, "hyperop", "mu:5:4", "--pair", "T-1", "T-2", "--plain") == (0, "(T-1) * (T-2) = ['(T-2)']\n", "")


class TestVerifyGolden:
    # The benchmark's verify-mid run, `verify --suite` over mu:13:12 and
    # addetale:11:1, with the SHA-256 of its stdout, so any change to a check's
    # verdict or detail on these algebras fails here.
    DIGEST = "a515b3ab89046785bd3045324f03b23f35f9a8a91e694de4f2ca018bd8e37a1c"

    def test_stdout_digest(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"algebras": ["mu:13:12", "addetale:11:1"]}) + "\n")
        code, out, _ = run_cli(capsys, "verify", "--suite", str(cfg))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGEST


class TestHyperopPairGolden:
    # `hyperop --pair` JSON, with the forced-zero ideal, pinned by the SHA-256
    # of its stdout: two pairs of addetale:3:2 (degree-2 points, two members
    # each), both orders of one pair of F_3^{S_3}, which is not
    # cocommutative, named by the index of each point in the spectrum, and
    # one pair of the non-reduced mu:3:12 (two members, forced-zero ideal of
    # dimension 10).
    RUNS = {
        ("addetale:3:2", "(T^2+1)", "(T^2+1)"): "57cc73e08617e2897da95728503830e5e5060ef1198d3cc65b0ffeff88d3e8dc",
        ("addetale:3:2", "(T^2+1)", "(T^2+T+2)"): "9e127ed13c3038809115efb2f7e6c170ae91f2150a854e25ebea020cf0510a64",
        ("fs3", 1, 3): "37c821d8b7be04315c5d203dcd86923bac83f44d4d971e3bb45e969a7d756c3b",
        ("fs3", 3, 1): "1f0277f862361972015146daef1298e5410d6169f19b0848877ea96c76e38b84",
        ("mu:3:12", "(T^2+1)", "(T^2+1)"): "6c2034e7016e67493b3247fb53e83a0e64d1a8928c77e4c0cd49004a071a8fbe",
    }

    @pytest.mark.parametrize("spec, f, g", list(RUNS))
    def test_stdout_digest(self, spec, f, g, fs3, tmp_path, capsys):
        want = self.RUNS[(spec, f, g)]
        if spec == "fs3":
            from hyperspec.specops import kpoints

            spec = str(tmp_path / "fs3.json")
            Path(spec).write_text(json.dumps(fs3.to_json()))
            f, g = (kpoints(fs3)[i].label for i in (f, g))
        code, out, _ = run_cli(capsys, "hyperop", spec, "--pair", f, g)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want


class TestLoadAlgebra:
    def test_builtin(self):
        assert load_algebra("mu:3:2").name == "mu:3:2"

    def test_missing_path(self):
        with pytest.raises(ValueError):
            load_algebra("not/a/real/path.json")
