import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nttmul import cli, pipesim, polymul
from nttmul.params import load_tables
from nttmul.pipesim import PipelineAssertionError
from nttmul.polymul import Polynomial, naive_negacyclic_mul
from conftest import FIXED_M
from test_pipesim import built_stages


@pytest.fixture
def toy_tables(tmp_path):
    path = tmp_path / "toy.json"
    rc = cli.main(["params", "--modulus", "17", "--n", "4",
                   "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture
def prod_tables(tmp_path):
    path = tmp_path / "prod.json"
    rc = cli.main(["params", "--modulus", "1049089", "--n", "256",
                   "--out", str(path)])
    assert rc == 0
    return path


def write_ndjson(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestParamsCommand:
    def test_writes_loadable_tables(self, toy_tables):
        p = load_tables(toy_tables)
        assert (p.M, p.n) == (17, 4)

    def test_prints_constants_and_verdict(self, prod_tables, capsys):
        # fixture already ran the command; run again to capture its output
        rc = cli.main(["params", "--modulus", "1049089", "--n", "256",
                       "--out", str(prod_tables)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "k = 40" in out and "u = 1048063" in out
        assert "omega = " in out and "phi = " in out
        assert ("barrett check: ok over all 1100585631745 inputs "
                "(exact certificate)") in out

    def test_rejects_composite_modulus(self, tmp_path, capsys):
        rc = cli.main(["params", "--modulus", "15", "--n", "4",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "prime" in capsys.readouterr().err

    def test_rejects_bad_ring_order(self, tmp_path, capsys):
        rc = cli.main(["params", "--modulus", "1049089", "--n", "512",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err

    def test_rejects_modulus_beyond_exact_primality(self, tmp_path, capsys):
        # a composite that Miller-Rabin with twelve witnesses calls prime
        rc = cli.main(["params", "--modulus", "318665857834031151167461",
                       "--n", "4", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2**64" in err

    def test_rejects_length_the_pipeline_cannot_build(self, tmp_path, capsys):
        # 2N = 4 divides 17 - 1, but check and sim need N >= 4
        out = tmp_path / "x.json"
        rc = cli.main(["params", "--modulus", "17", "--n", "2",
                       "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        rc = cli.main(["params", "--modulus", "17", "--n", "4",
                       "--out", str(tmp_path / "missing" / "t.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestGenCommand:
    def test_same_seed_byte_identical(self, toy_tables, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        for out in (a, b):
            rc = cli.main(["gen", "--params", str(toy_tables), "--count", "20",
                           "--seed", "42", "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, toy_tables, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "20",
                  "--seed", "1", "--out", str(a)])
        cli.main(["gen", "--params", str(toy_tables), "--count", "20",
                  "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_count_zero_empty_file(self, toy_tables, tmp_path):
        out = tmp_path / "empty.ndjson"
        rc = cli.main(["gen", "--params", str(toy_tables), "--count", "0",
                       "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == b""

    def test_production_schema(self, prod_tables, tmp_path):
        out = tmp_path / "v.ndjson"
        rc = cli.main(["gen", "--params", str(prod_tables), "--count", "100",
                       "--seed", "9", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 100
        for line in lines:
            rec = json.loads(line)
            for field in ("a", "b"):
                arr = rec[field]
                assert len(arr) == 256
                assert all(isinstance(x, str) and 0 <= int(x) < 1049089
                           for x in arr)

    def test_missing_params_file(self, tmp_path, capsys):
        rc = cli.main(["gen", "--params", str(tmp_path / "nope.json"),
                       "--count", "1", "--seed", "0",
                       "--out", str(tmp_path / "v.ndjson")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestMulCommand:
    def test_methods_agree_byte_for_byte(self, toy_tables, tmp_path):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "25",
                  "--seed", "3", "--out", str(vec)])
        naive_out = tmp_path / "naive.ndjson"
        ntt_out = tmp_path / "ntt.ndjson"
        assert cli.main(["mul", "--params", str(toy_tables),
                         "--vectors", str(vec), "--method", "naive",
                         "--out", str(naive_out)]) == 0
        assert cli.main(["mul", "--params", str(toy_tables),
                         "--vectors", str(vec), "--method", "ntt",
                         "--out", str(ntt_out)]) == 0
        assert naive_out.read_bytes() == ntt_out.read_bytes()

    def test_identity_operand(self, toy_tables, tmp_path):
        vec = tmp_path / "v.ndjson"
        write_ndjson(vec, [{"a": ["1", "0", "0", "0"],
                            "b": ["3", "5", "7", "11"]}])
        out = tmp_path / "c.ndjson"
        assert cli.main(["mul", "--params", str(toy_tables),
                         "--vectors", str(vec), "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["c"] == rec["b"] == ["3", "5", "7", "11"]

    def test_rejects_out_of_range_coefficient(self, toy_tables, tmp_path,
                                              capsys):
        vec = tmp_path / "v.ndjson"
        write_ndjson(vec, [{"a": ["1", "0", "0", "17"],
                            "b": ["0", "0", "0", "0"]}])
        rc = cli.main(["mul", "--params", str(toy_tables),
                       "--vectors", str(vec), "--out", str(tmp_path / "c")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {vec}:1 field a: coefficient 17 outside [0, 17)\n")

    @pytest.mark.parametrize("digit", ["\u0663", "\u00b2"])
    def test_rejects_non_ascii_digits(self, toy_tables, tmp_path, capsys,
                                      digit):
        # Arabic-Indic three passes str.isdigit and int(); superscript two
        # passes str.isdigit only
        vec = tmp_path / "v.ndjson"
        write_ndjson(vec, [{"a": ["1", digit, "0", "0"],
                            "b": ["0", "0", "0", "0"]}])
        rc = cli.main(["mul", "--params", str(toy_tables),
                       "--vectors", str(vec), "--out", str(tmp_path / "c")])
        assert rc == 2
        assert f"{vec}:1 field a" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [1, 1.5, True, None, "-1", "+1", " 1",
                                       "", "0x1"])
    def test_rejects_entries_that_are_not_decimal(self, toy_tables, tmp_path,
                                                  capsys, entry):
        vec = tmp_path / "v.ndjson"
        write_ndjson(vec, [{"a": ["1", "0", "0", "0"],
                            "b": ["0", entry, "0", "0"]}])
        rc = cli.main(["mul", "--params", str(toy_tables),
                       "--vectors", str(vec), "--out", str(tmp_path / "c")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {vec}:1 field b: coefficient {entry!r} is not a "
            "decimal string\n")

    @pytest.mark.parametrize("field", ["a", "b", "c_expected"])
    def test_rejects_bare_json_integers(self, toy_tables, tmp_path, capsys,
                                        field):
        # vector files carry decimal strings: a JSON number in any field
        # exits 2, naming the field and the entry
        vec = tmp_path / "v.ndjson"
        record = {"a": ["1", "0", "0", "0"], "b": ["0", "1", "0", "0"],
                  "c_expected": ["0", "1", "0", "0"]}
        record[field] = ["0", "1", 1, "0"]
        write_ndjson(vec, [record])
        rc = cli.main(["mul", "--params", str(toy_tables),
                       "--vectors", str(vec), "--out", str(tmp_path / "c")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {vec}:1 field {field}: coefficient 1 is not a decimal "
            "string\n")

    def test_rejects_malformed_json(self, toy_tables, tmp_path, capsys):
        vec = tmp_path / "v.ndjson"
        vec.write_text('{"a": [1, 2\n')
        rc = cli.main(["mul", "--params", str(toy_tables),
                       "--vectors", str(vec), "--out", str(tmp_path / "c")])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_rejects_wrong_length(self, toy_tables, tmp_path, capsys):
        vec = tmp_path / "v.ndjson"
        write_ndjson(vec, [{"a": ["1", "2"], "b": ["1", "2", "3", "4"]}])
        rc = cli.main(["mul", "--params", str(toy_tables),
                       "--vectors", str(vec), "--out", str(tmp_path / "c")])
        assert rc == 2
        assert "4 coefficients" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--params", "--vectors"])
    def test_directory_as_input_exits_two(self, toy_tables, tmp_path, capsys,
                                          flag):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "1",
                  "--seed", "0", "--out", str(vec)])
        files = {"--params": str(toy_tables), "--vectors": str(vec)}
        files[flag] = str(tmp_path)
        rc = cli.main(["mul", "--params", files["--params"],
                       "--vectors", files["--vectors"],
                       "--out", str(tmp_path / "c.ndjson")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSimCommand:
    @pytest.mark.parametrize("mode", ["schedule", "structural"])
    @pytest.mark.parametrize("count", [0, 1, 3, 4])
    def test_report_is_what_json_dump_writes(self, prod_tables, tmp_path,
                                             count, mode):
        # the report file is written a product at a time, by hand around
        # the report's own json.dumps: it is byte for byte what json.dump
        # writes for the whole document, with a line end
        vec, out = tmp_path / "v.ndjson", tmp_path / "r.json"
        cli.main(["gen", "--params", str(prod_tables), "--count", str(count),
                  "--seed", "9", "--out", str(vec)])
        assert cli.main(["sim", "--params", str(prod_tables), "--vectors",
                         str(vec), "--mode", mode, "--report", str(out)]) == 0
        p = load_tables(prod_tables)
        pairs = [tuple(Polynomial([int(x) for x in rec[k]], p.M)
                       for k in "ab")
                 for rec in map(json.loads, vec.read_text().splitlines())]
        _, report = pipesim.run_stream(
            pairs, pipesim.PipelineConfig(n=p.n, params=p, mode=mode))
        doc = {"report": report.to_dict(),
               "products": [[str(c) for c in naive_negacyclic_mul(a, b, p)
                             .coeffs] for a, b in pairs]}
        assert out.read_text() == json.dumps(doc, indent=2,
                                             sort_keys=True) + "\n"

    def test_report_and_products(self, toy_tables, tmp_path):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "6",
                  "--seed", "4", "--out", str(vec)])
        report_path = tmp_path / "report.json"
        rc = cli.main(["sim", "--params", str(toy_tables),
                       "--vectors", str(vec), "--report", str(report_path)])
        assert rc == 0
        doc = json.loads(report_path.read_text())
        assert doc["report"]["n"] == 4
        assert doc["report"]["steady_cycles_per_mul"] == 2
        assert doc["report"]["first_mul_latency"] == 11
        p = load_tables(toy_tables)
        for rec_line, c_strs in zip(vec.read_text().splitlines(),
                                    doc["products"]):
            rec = json.loads(rec_line)
            a = Polynomial(tuple(int(x) for x in rec["a"]), 17)
            b = Polynomial(tuple(int(x) for x in rec["b"]), 17)
            want = naive_negacyclic_mul(a, b, p).coeffs
            assert tuple(int(x) for x in c_strs) == want

    def test_structural_mode_flag(self, toy_tables, tmp_path):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "5",
                  "--seed", "5", "--out", str(vec)])
        report_path = tmp_path / "report.json"
        rc = cli.main(["sim", "--params", str(toy_tables),
                       "--vectors", str(vec), "--mode", "structural",
                       "--butterfly-latency", "4",
                       "--report", str(report_path)])
        assert rc == 0
        doc = json.loads(report_path.read_text())
        assert doc["report"]["butterfly_latency"] == 4
        assert doc["report"]["steady_cycles_per_mul"] == 2

    def test_trace_flag(self, toy_tables, tmp_path):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "2",
                  "--seed", "6", "--out", str(vec)])
        trace = tmp_path / "trace.csv"
        rc = cli.main(["sim", "--params", str(toy_tables),
                       "--vectors", str(vec),
                       "--report", str(tmp_path / "r.json"),
                       "--trace", str(trace)])
        assert rc == 0
        assert trace.read_text().startswith("cycle,stage,sel,counter")

    def test_unwritable_trace_exits_two(self, toy_tables, tmp_path, capsys):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "2",
                  "--seed", "6", "--out", str(vec)])
        rc = cli.main(["sim", "--params", str(toy_tables),
                       "--vectors", str(vec),
                       "--report", str(tmp_path / "r.json"),
                       "--trace", str(tmp_path / "missing" / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_assertion_exits_three(self, toy_tables, tmp_path, monkeypatch,
                                   capsys):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "1",
                  "--seed", "6", "--out", str(vec)])

        def boom(*args, **kwargs):
            # a break of the schedule proof, which says where it stopped
            error = PipelineAssertionError("forced failure")
            error.stop = 1, 0
            raise error

        monkeypatch.setattr(cli, "run_stream", boom)
        rc = cli.main(["sim", "--params", str(toy_tables),
                       "--vectors", str(vec),
                       "--report", str(tmp_path / "r.json"),
                       "--trace", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "forced failure" in err
        assert "t.csv" in err

    def test_proof_before_any_row_names_no_trace(self, toy_tables, tmp_path,
                                                 monkeypatch, capsys):
        # the network proof breaks when the config is built, before the
        # schedule proof and before any row: exit 3, and neither a trace
        # line nor a trace file
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "1",
                  "--seed", "6", "--out", str(vec)])
        capsys.readouterr()

        def broken(n):
            raise PipelineAssertionError("network broken")

        monkeypatch.setattr(pipesim, "_network_proof", broken)
        trace = tmp_path / "t.csv"
        rc = cli.main(["sim", "--params", str(toy_tables),
                       "--vectors", str(vec),
                       "--report", str(tmp_path / "r.json"),
                       "--trace", str(trace)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "internal assertion: network broken\n")
        assert not trace.exists()

    def test_assertion_without_trace_names_no_trace(self, toy_tables,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "1",
                  "--seed", "6", "--out", str(vec)])
        capsys.readouterr()

        def boom(*args, **kwargs):
            raise PipelineAssertionError("forced failure")

        monkeypatch.setattr(cli, "run_stream", boom)
        rc = cli.main(["sim", "--params", str(toy_tables),
                       "--vectors", str(vec),
                       "--report", str(tmp_path / "r.json")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "internal assertion: forced failure\n")

    def test_pipeline_fault_exits_three(self, tmp_path, monkeypatch, capsys):
        # a fault in the model itself, not a patched run_stream: fwd_a3's
        # FIFO swaps the pair it emits at fire 4, its last before its
        # second snapshot, in the walk of 2 products that building the
        # config runs.  The run exits 3 naming the stage and the trace,
        # writes no report, and leaves the clean run's trace up to the
        # failure, at this stream's length
        tables, vec = tmp_path / "p16.json", tmp_path / "v.ndjson"
        cli.main(["params", "--modulus", "1049089", "--n", "16",
                  "--out", str(tables)])
        cli.main(["gen", "--params", str(tables), "--count", "3",
                  "--seed", "7", "--out", str(vec)])
        clean, trace = tmp_path / "clean.csv", tmp_path / "t.csv"
        report = tmp_path / "r.json"
        sim = ["sim", "--params", str(tables), "--vectors", str(vec)]
        assert cli.main([*sim, "--report", str(tmp_path / "clean.json"),
                         "--trace", str(clean)]) == 0
        capsys.readouterr()
        # the clean run proved N = 16: forget it, so that the faulty run
        # proves
        pipesim._schedule_proof.cache_clear()

        real_tick = pipesim.StageFifo.tick
        stages = built_stages(monkeypatch)

        def tick(fifo, arrival):
            pair = real_tick(fifo, arrival)
            if (fifo is stages["fwd_a3"].fifo
                    and fifo.counter == fifo.hold + 4 + 1):
                return pair[::-1]
            return pair

        monkeypatch.setattr(pipesim.StageFifo, "tick", tick)
        rc = cli.main([*sim, "--report", str(report), "--trace", str(trace)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "internal assertion: fwd_a3: fire 4 pairs " in err
        assert f"cycle trace (up to the failure): {trace}\n" in err
        assert not report.exists()
        assert clean.read_bytes().startswith(trace.read_bytes())
        assert len(trace.read_bytes()) < len(clean.read_bytes())

    def test_unwritable_trace_after_a_proof_break_exits_three(
            self, toy_tables, tmp_path, monkeypatch, capsys):
        # the schedule proof breaks at inv2's fire 1 and the trace of the
        # rows up to there cannot be opened: exit 3 with the assertion
        # first, then the failed write on its own error line, and no
        # trace line
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "1",
                  "--seed", "6", "--out", str(vec)])
        capsys.readouterr()
        real_tick = pipesim._PipeStage.tick

        def tick(stage, cycle, arrival):
            if (stage.label, stage.t) == ("inv2", 1):
                raise PipelineAssertionError("injected")
            real_tick(stage, cycle, arrival)

        monkeypatch.setattr(pipesim._PipeStage, "tick", tick)
        trace = tmp_path / "missing" / "t.csv"
        rc = cli.main(["sim", "--params", str(toy_tables),
                       "--vectors", str(vec),
                       "--report", str(tmp_path / "r.json"),
                       "--trace", str(trace)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "internal assertion: injected\n"
            f"error: [Errno 2] No such file or directory: {str(trace)!r}\n")
        assert not (tmp_path / "r.json").exists()

    def test_schedule_mode_rejects_deep_latency(self, toy_tables, tmp_path,
                                                capsys):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "1",
                  "--seed", "6", "--out", str(vec)])
        rc = cli.main(["sim", "--params", str(toy_tables),
                       "--vectors", str(vec), "--butterfly-latency", "4",
                       "--report", str(tmp_path / "r.json")])
        assert rc == 2

    def test_latency_too_deep_to_model_exits_two(self, toy_tables, tmp_path):
        # a fresh process: an uncaught exception would exit 1 with a
        # traceback, and exit 1 means a check found a disagreement
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "1",
                  "--seed", "6", "--out", str(vec)])
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "nttmul.cli", "sim",
             "--params", str(toy_tables), "--vectors", str(vec),
             "--mode", "structural", "--butterfly-latency", str(10**30),
             "--report", str(tmp_path / "r.json")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")


class TestCheckCommand:
    def test_clean_run(self, toy_tables, tmp_path, capsys):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "10",
                  "--seed", "8", "--out", str(vec)])
        rc = cli.main(["check", "--params", str(toy_tables),
                       "--vectors", str(vec)])
        assert rc == 0
        assert "all agree" in capsys.readouterr().out

    def test_correct_expected_field_accepted(self, toy_tables, tmp_path):
        p = load_tables(toy_tables)
        a = Polynomial((1, 2, 3, 4), 17)
        b = Polynomial((5, 6, 7, 8), 17)
        c = naive_negacyclic_mul(a, b, p)
        vec = tmp_path / "v.ndjson"
        write_ndjson(vec, [{"a": [str(x) for x in a.coeffs],
                            "b": [str(x) for x in b.coeffs],
                            "c_expected": [str(x) for x in c.coeffs]}])
        assert cli.main(["check", "--params", str(toy_tables),
                         "--vectors", str(vec)]) == 0

    def test_corrupted_expected_field_flagged(self, toy_tables, tmp_path,
                                              capsys):
        p = load_tables(toy_tables)
        a = Polynomial((1, 2, 3, 4), 17)
        b = Polynomial((5, 6, 7, 8), 17)
        c = list(naive_negacyclic_mul(a, b, p).coeffs)
        c[2] = (c[2] + 1) % 17
        vec = tmp_path / "v.ndjson"
        write_ndjson(vec, [
            {"a": ["1", "0", "0", "0"], "b": ["9", "9", "9", "9"]},
            {"a": [str(x) for x in a.coeffs],
             "b": [str(x) for x in b.coeffs],
             "c_expected": [str(x) for x in c]},
        ])
        rc = cli.main(["check", "--params", str(toy_tables),
                       "--vectors", str(vec)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "record 1" in err

    @staticmethod
    def bumped(poly):
        # the polynomial with coefficient 0 changed
        c = poly.coeffs
        return Polynomial(((c[0] + 1) % poly.modulus, *c[1:]), poly.modulus)

    def run_check(self, toy_tables, tmp_path, capsys):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "3",
                  "--seed", "9", "--out", str(vec)])
        capsys.readouterr()
        rc = cli.main(["check", "--params", str(toy_tables),
                       "--vectors", str(vec)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return rc, captured.err

    def test_transform_disagreement_exits_one(self, toy_tables, tmp_path,
                                              monkeypatch, capsys):
        # the transform path returns record 1's product with one coefficient
        # changed
        real, calls = cli.negacyclic_mul_ntt, []

        def ntt(a, b, p):
            calls.append(None)
            c = real(a, b, p)
            return self.bumped(c) if len(calls) == 2 else c

        monkeypatch.setattr(cli, "negacyclic_mul_ntt", ntt)
        assert self.run_check(toy_tables, tmp_path, capsys) == (
            1, "record 1: transform result disagrees with the schoolbook "
               "oracle\n")

    def test_simulator_disagreement_exits_one(self, toy_tables, tmp_path,
                                              monkeypatch, capsys):
        # the schoolbook oracle returns record 1's product with one
        # coefficient changed; the simulator returns the oracle's products,
        # so the transform path disagrees with them at record 1
        real, calls = polymul.naive_negacyclic_mul, []

        def naive(a, b, p):
            calls.append(None)
            c = real(a, b, p)
            return self.bumped(c) if len(calls) == 2 else c

        monkeypatch.setattr(polymul, "naive_negacyclic_mul", naive)
        assert self.run_check(toy_tables, tmp_path, capsys) == (
            1, "record 1: transform result disagrees with the schoolbook "
               "oracle\n")
        assert len(calls) == 3

    def test_out_of_range_expected_field_names_its_location(
            self, toy_tables, tmp_path, capsys):
        vec = tmp_path / "v.ndjson"
        write_ndjson(vec, [{"a": ["1", "0", "0", "0"],
                            "b": ["3", "5", "7", "11"],
                            "c_expected": ["3", "5", "7", "17"]}])
        rc = cli.main(["check", "--params", str(toy_tables),
                       "--vectors", str(vec)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {vec}:1 field c_expected: coefficient 17 outside "
            "[0, 17)\n")

    def test_empty_vector_file(self, toy_tables, tmp_path):
        vec = tmp_path / "v.ndjson"
        vec.write_text("")
        assert cli.main(["check", "--params", str(toy_tables),
                         "--vectors", str(vec)]) == 0

    def test_assertion_exits_three(self, toy_tables, tmp_path, monkeypatch,
                                   capsys):
        vec = tmp_path / "v.ndjson"
        cli.main(["gen", "--params", str(toy_tables), "--count", "1",
                  "--seed", "6", "--out", str(vec)])
        capsys.readouterr()

        def boom(*args, **kwargs):
            raise PipelineAssertionError("forced failure")

        monkeypatch.setattr(cli, "run_stream", boom)
        rc = cli.main(["check", "--params", str(toy_tables),
                       "--vectors", str(vec)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "internal assertion: forced failure\n")


@pytest.mark.parametrize("command", ["gen", "mul", "sim", "check"])
def test_tampered_table_file_exits_two(toy_tables, tmp_path, capsys,
                                       command):
    vec = tmp_path / "v.ndjson"
    cli.main(["gen", "--params", str(toy_tables), "--count", "2",
              "--seed", "6", "--out", str(vec)])
    obj = json.loads(toy_tables.read_text())
    obj["omega"] = str((int(obj["omega"]) + 1) % 17)
    toy_tables.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    capsys.readouterr()
    tables = ["--params", str(toy_tables)]
    argv = {
        "gen": ["gen", *tables, "--count", "1", "--seed", "0",
                "--out", str(tmp_path / "w.ndjson")],
        "mul": ["mul", *tables, "--vectors", str(vec),
                "--out", str(tmp_path / "c.ndjson")],
        "sim": ["sim", *tables, "--vectors", str(vec),
                "--report", str(tmp_path / "r.json")],
        "check": ["check", *tables, "--vectors", str(vec)],
    }[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {toy_tables}: table file differs from the tables derived "
        "for (M=17, N=4) at key 'omega'\n")


@pytest.mark.parametrize("command", ["gen", "mul", "sim", "check"])
def test_deeply_nested_json_exits_two(toy_tables, tmp_path, capsys, command):
    # json raises RecursionError on nesting this deep: bad input, not a
    # disagreement; gen reads a deep table file, the others a deep record
    deep = tmp_path / "deep"
    deep.write_text("[" * 5000 + "]" * 5000 + "\n")
    tables = ["--params", str(deep if command == "gen" else toy_tables)]
    vec = ["--vectors", str(deep)]
    argv = {
        "gen": ["gen", *tables, "--count", "1", "--seed", "0",
                "--out", str(tmp_path / "w.ndjson")],
        "mul": ["mul", *tables, *vec, "--out", str(tmp_path / "c.ndjson")],
        "sim": ["sim", *tables, *vec, "--report", str(tmp_path / "r.json")],
        "check": ["check", *tables, *vec],
    }[command]
    assert cli.main(argv) == 2
    where = f"{deep}:" if command == "gen" else f"{deep}:1: invalid JSON"
    assert capsys.readouterr().err.startswith(f"error: {where}")


@pytest.mark.parametrize("command", ["mul", "sim", "check"])
def test_too_many_digits_names_its_location(toy_tables, tmp_path, capsys,
                                            command):
    # int() refuses a decimal string this long, and json.loads a JSON
    # number this long with a plain ValueError; the error line still names
    # the file and line, and the field for a string
    vec = tmp_path / "v.ndjson"
    tables = ["--params", str(toy_tables), "--vectors", str(vec)]
    argv = {
        "mul": ["mul", *tables, "--out", str(tmp_path / "c.ndjson")],
        "sim": ["sim", *tables, "--report", str(tmp_path / "r.json")],
        "check": ["check", *tables],
    }[command]
    for digits, where in ((f'"{"1" * 5000}"', "1 field a: "),
                          ("1" * 5000, "1: invalid JSON (")):
        vec.write_text(f'{{"a": [{digits}, "0", "0", "0"], '
                       '"b": ["0", "0", "0", "0"]}\n')
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {vec}:{where}")


def entry_by_entry(value, n, M, where):
    # the decoder's rule entry by entry, as it read before its one-pass
    # form: a decimal string becomes an int, int() refusing too many
    # digits, any other entry is refused by name, and Polynomial checks the
    # ints' bound
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"{where}: expected an array of {n} coefficients")
    try:
        return Polynomial([int(x) if isinstance(x, str) and x.isascii()
                           and x.isdigit() else cli._not_decimal(x)
                           for x in value], M)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def decoded(decode, value, n, M):
    # what a decoder gives: the coefficients, modulus and domain, or the
    # error's type and message
    try:
        p = decode(value, n, M, "v:1 field a")
    except ValueError as e:
        return type(e), str(e)
    return p.coeffs, p.modulus, p.domain


string_entries = (
    st.integers(0, 2 * FIXED_M).map(str)                     # >= M too
    | st.tuples(st.integers(1, 4), st.integers(0, 99)).map(
        lambda z: "0" * z[0] + str(z[1]))                    # leading zeros
    | st.sampled_from(["", "\u0663", "1\u00b2", "\uff11", " 1", "+1", "-1",
                       "1_0", "0x1", "a"])
    | st.integers(4301, 4400).map(lambda k: "1" * k)         # over 4300 digits
    | st.integers(4296, 4305).map(lambda k: "0" * k))
entries = (string_entries
           | st.integers(-3, 2 * FIXED_M)                    # JSON numbers
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.booleans() | st.none())


class TestRecordDecoder:
    @given(value=st.lists(entries, min_size=4, max_size=4)
           | st.lists(string_entries, min_size=4, max_size=4)
           | st.lists(st.integers(0, 2 * FIXED_M).map(str), min_size=4,
                      max_size=4),
           M=st.sampled_from([17, 257, FIXED_M]))
    def test_one_pass_is_the_entry_by_entry_rule(self, value, M):
        # random lists of mixed entries, of strings alone, and of digit
        # strings alone (the one pass, in and out of range): equal
        # coefficients, or the same first error
        assert (decoded(cli._poly_from_json, value, 4, M)
                == decoded(entry_by_entry, value, 4, M))

    @pytest.mark.parametrize("value", [
        ["1", "1" * 5000, 1, "0"],       # too many digits before a number
        ["1", "17", "1" * 5000, "0"],    # out of range before too many
        ["1", "0", "0", 17],
        ["1", "0x1", "2", "3"],
        ["1", "", "2", "3"],
        ["007", "16", "0", "00"],
        ["1", "2", "3"],
        "1234"])
    def test_first_error_as_entry_by_entry(self, value):
        assert (decoded(cli._poly_from_json, value, 4, 17)
                == decoded(entry_by_entry, value, 4, 17))


# SHA-256 of every file and stdout of one fixed session at the paper ring,
# plus the table file and params stdout of two more rings: a refactor must
# keep them all.
PINNED_SESSION = {
    "params 1049089 256": "e77b4a572016e418b215197ff37983760c8ffeb5198bdb222ae3630d326a018d",
    "params 12289 1024": "817bf013d51fdabbbb9e9f701dedc3a279944341504e2883c146e9f0ae2dc0b8",
    "params 12289 1024 stdout": "f1441c2b5636ee9afd2a245e3ed9d8b65586b4596a2933379398cd88a2b2f790",
    "params 18446744069414584321 64": "3c680f4b32cb868b2a85232b1d54a935b1117bb199f601c644f03e019affb500",
    "params 18446744069414584321 64 stdout": "8c2407346757e88093d5214815775afabb3a17ee20f42e4fb99d40f2c57b2cba",
    "params stdout": "6909ecbce43c89e96ac2d1ef509baa2490c2b3646358e477662f050305527ee2",
    "gen": "ed4bdf7df081533df2e0fb9a58e8b9d56a0ae23b1581d68c4b6c5cec5a039c80",
    "mul ntt": "73c70c8ff759f79b735729005d542fee784f3d2bfd1a5c976e66685faad65c46",
    "mul naive": "73c70c8ff759f79b735729005d542fee784f3d2bfd1a5c976e66685faad65c46",
    "sim stdout": "9df2c7a8ade87464f64b39170e5771439274cdede16ceb72a3bfaec31d25c882",
    "sim report": "ccd8ef0ef8e855b6781205e4138c3d1cdaab3075a4e70ae08d49b9a401a2084d",
    "sim trace": "1249366145cb8eb566d94558973e37b116f0251065d5430d57747b78c1f43103",
    "sim structural stdout": "e09f99d8c4582781c4ff171d06a56f45ef7950f2b3bcf63d8a3c4578dfefc40c",
    "sim structural report": "a0af1297df7d90fb4489caefc2e6beafef22e83708b7f25a4205491e8ce35508",
    "check stdout": "7021e8941c67637f77924dd69493a236b86d8f9c476a02619d4843c0f0d99279",
}


def test_session_bytes_match_pinned(tmp_path, monkeypatch, capsys):
    # relative paths, so the printed "wrote ..." lines do not vary per run
    monkeypatch.chdir(tmp_path)

    def run(*argv):
        assert cli.main(list(argv)) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    def file_digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    got = {}
    # 2**64 - 2**32 + 1 takes k = 128; the paper ring comes last, so the
    # rest of the session reads its table file
    for m, n in (("18446744069414584321", "64"), ("12289", "1024"),
                 ("1049089", "256")):
        stdout = run("params", "--modulus", m, "--n", n, "--out", "t.json")
        got[f"params {m} {n}"] = file_digest("t.json")
        paper = m == "1049089"
        got["params stdout" if paper else f"params {m} {n} stdout"] = stdout
    tables = ("--params", "t.json")
    run("gen", *tables, "--count", "4", "--seed", "11", "--out", "v.ndjson")
    got["gen"] = file_digest("v.ndjson")
    vectors = (*tables, "--vectors", "v.ndjson")
    for method in ("ntt", "naive"):
        run("mul", *vectors, "--method", method, "--out", "c.ndjson")
        got[f"mul {method}"] = file_digest("c.ndjson")
    got["sim stdout"] = run("sim", *vectors, "--report", "r.json",
                            "--trace", "t.csv")
    got["sim report"] = file_digest("r.json")
    got["sim trace"] = file_digest("t.csv")
    got["sim structural stdout"] = run("sim", *vectors, "--mode", "structural",
                                       "--report", "r.json")
    got["sim structural report"] = file_digest("r.json")
    got["check stdout"] = run("check", *vectors)
    assert got == PINNED_SESSION


class TestArgumentErrors:
    def test_unknown_method_rejected(self, toy_tables, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["mul", "--params", str(toy_tables),
                      "--vectors", "x", "--method", "toom",
                      "--out", str(tmp_path / "c")])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.main([])


# the parser's output, taken when every process built all five subparsers:
# argv, exit status, stdout, stderr; COLUMNS=80
PINNED_PARSER_OUTPUT = [
    (("--help",), 0,
     "usage: nttmul [-h] {params,gen,mul,sim,check} ...\n"
     "\n"
     "negacyclic polynomial multiplication: parameter derivation, reference\n"
     "multiplication, and the cycle-accurate pipeline model\n"
     "\n"
     "positional arguments:\n"
     "  {params,gen,mul,sim,check}\n"
     "    params              derive constants and write a table file\n"
     "    gen                 generate seeded test vectors\n"
     "    mul                 multiply vector records with reference code\n"
     "    sim                 run the cycle-accurate multiplier model\n"
     "    check               cross-check oracle, transform, simulator\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n",
     ""),
    (("params", "--help"), 0,
     "usage: nttmul params [-h] --modulus MODULUS --n N --out OUT\n"
     "\n"
     "options:\n"
     "  -h, --help         show this help message and exit\n"
     "  --modulus MODULUS\n"
     "  --n N\n"
     "  --out OUT\n",
     ""),
    (("gen", "--help"), 0,
     "usage: nttmul gen [-h] --params PARAMS --count COUNT --seed SEED --out "
     "OUT\n"
     "\n"
     "options:\n"
     "  -h, --help       show this help message and exit\n"
     "  --params PARAMS\n"
     "  --count COUNT\n"
     "  --seed SEED\n"
     "  --out OUT\n",
     ""),
    (("mul", "--help"), 0,
     "usage: nttmul mul [-h] --params PARAMS --vectors VECTORS\n"
     "                  [--method {naive,ntt}] --out OUT\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --params PARAMS\n"
     "  --vectors VECTORS\n"
     "  --method {naive,ntt}\n"
     "  --out OUT\n",
     ""),
    (("sim", "--help"), 0,
     "usage: nttmul sim [-h] --params PARAMS --vectors VECTORS\n"
     "                  [--mode {schedule,structural}]\n"
     "                  [--butterfly-latency BUTTERFLY_LATENCY] --report "
     "REPORT\n"
     "                  [--trace TRACE]\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --params PARAMS\n"
     "  --vectors VECTORS\n"
     "  --mode {schedule,structural}\n"
     "  --butterfly-latency BUTTERFLY_LATENCY\n"
     "  --report REPORT\n"
     "  --trace TRACE         CSV cycle-trace path\n",
     ""),
    (("check", "--help"), 0,
     "usage: nttmul check [-h] --params PARAMS --vectors VECTORS\n"
     "\n"
     "options:\n"
     "  -h, --help         show this help message and exit\n"
     "  --params PARAMS\n"
     "  --vectors VECTORS\n",
     ""),
    (("gen",), 2,
     "",
     "usage: nttmul gen [-h] --params PARAMS --count COUNT --seed SEED --out "
     "OUT\n"
     "nttmul gen: error: the following arguments are required: --params, "
     "--count, --seed, --out\n"),
    (("bogus",), 2,
     "",
     "usage: nttmul [-h] {params,gen,mul,sim,check} ...\n"
     "nttmul: error: argument command: invalid choice: 'bogus' (choose from "
     "'params', 'gen', 'mul', 'sim', 'check')\n"),
    ((), 2,
     "",
     "usage: nttmul [-h] {params,gen,mul,sim,check} ...\n"
     "nttmul: error: the following arguments are required: command\n"),
    (("check", "--params", "p", "--vectors", "v", "--extra"), 2,
     "",
     "usage: nttmul [-h] {params,gen,mul,sim,check} ...\n"
     "nttmul: error: unrecognized arguments: --extra\n"),
]


@pytest.mark.parametrize("argv, status, out, err", PINNED_PARSER_OUTPUT)
def test_parser_output_pinned(monkeypatch, capsys, argv, status, out, err):
    # only the subparser that argv names is built; help, usage and errors
    # stay byte for byte those of the parser with every subparser
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        cli.main(list(argv))
    assert stop.value.code == status
    assert capsys.readouterr() == (out, err)


def test_cli_import_loads_no_numpy():
    # a fresh interpreter, so modules the test session already imported
    # (numpy among them) cannot hide an import
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, nttmul.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_cli_import_loads_no_dataclasses():
    # the value classes are nttmul._frozen's: dataclasses, and the inspect
    # it imports, cost each CLI process 10-18 ms at start
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, nttmul.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
