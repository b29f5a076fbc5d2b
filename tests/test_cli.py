import json

import numpy as np
import pytest

from wbary.cli import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    main,
)
from wbary.model import combination_cost, Combination


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_file(tmp_path, capsys, *extra):
    code, out, _ = run_cli(capsys, "gen", "--n", "3", "--size", "3", "--seed", "7", *extra)
    assert code == 0
    path = tmp_path / "inst.json"
    path.write_text(out)
    return path


class TestGen:
    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "gen", "--n", "3", "--size", "3", "--seed", "7")
        _, second, _ = run_cli(capsys, "gen", "--n", "3", "--size", "3", "--seed", "7")
        assert first == second

    def test_header_reports_combination_count(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--sizes", "2,3,4,5", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["n_combinations"] == 2 * 3 * 4 * 5
        sizes = [len(m["masses"]) for m in doc["measures"]]
        assert sizes == [2, 3, 4, 5]

    def test_random_masses(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--n", "2", "--size", "4", "--masses", "random", "--seed", "3"
        )
        assert code == 0
        doc = json.loads(out)
        for m in doc["measures"]:
            assert abs(sum(m["masses"]) - 1.0) <= 1e-12
            assert len(set(m["masses"])) > 1

    def test_bad_arguments(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--n", "3")
        assert code == 1
        assert "size" in err


class TestRoundTrip:
    def test_emit_load_is_exact(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys)
        inst = load_instance(str(path))
        again = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
        assert np.array_equal(inst.lambdas, again.lambdas)
        for a, b in zip(inst.measures, again.measures):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.masses, b.masses)


class TestSolveCommand:
    def test_solve_valid_file(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys)
        out_path = tmp_path / "result.json"
        code, _, _ = run_cli(
            capsys, "solve", "--input", str(path), "--out", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["converged"] is True
        assert abs(sum(p["mass"] for p in doc["barycenter"]) - 1.0) <= 1e-9

    def test_result_objective_self_consistent(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys)
        out_path = tmp_path / "result.json"
        code, _, _ = run_cli(
            capsys, "solve", "--input", str(path), "--out", str(out_path)
        )
        assert code == 0
        inst = load_instance(str(path))
        doc = json.loads(out_path.read_text())
        recomputed = sum(
            p["mass"] * combination_cost(Combination(tuple(p["assignment"]), 0), inst)
            for p in doc["barycenter"]
        )
        assert abs(doc["objective"] - recomputed) <= 1e-9

    def test_bad_mass_sum_names_measure(self, tmp_path, capsys):
        doc = {
            "weights": [0.5, 0.5],
            "measures": [
                {"points": [[0.0, 0.0]], "masses": [1.0]},
                {"points": [[1.0, 1.0], [2.0, 2.0]], "masses": [0.5, 0.4]},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "solve", "--input", str(path))
        assert code == 1
        assert "measures[1]" in err

    def test_nan_literal_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"weights": [0.5, 0.5], "measures": ['
            '{"points": [[0.0, NaN]], "masses": [1.0]},'
            '{"points": [[1.0, 1.0]], "masses": [1.0]}]}'
        )
        code, out, err = run_cli(capsys, "solve", "--input", str(path))
        assert code == 1
        assert out == ""
        assert "measures[0]" in err and "finite" in err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"weights": [1.0], "measures": [')
        code, _, err = run_cli(capsys, "solve", "--input", str(path))
        assert code == 1
        assert "line" in err

    def test_top_level_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "seven.json"
        path.write_text("7")
        code, out, err = run_cli(capsys, "solve", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "top level" in err and "object" in err

    def test_measure_entry_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "entry.json"
        path.write_text('{"weights": [0.5, 0.5], "measures": ['
                        '{"points": [[0.0]], "masses": [1.0]}, [[1.0], 1.0]]}')
        code, out, err = run_cli(capsys, "solve", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "measures[1]" in err and "object" in err

    def test_field_holding_an_object(self, tmp_path, capsys):
        path = tmp_path / "field.json"
        path.write_text('{"weights": [1.0], "measures": [{"points": {"x": 0}, "masses": [1.0]}]}')
        code, out, err = run_cli(capsys, "solve", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "measures[0]" in err

    def test_direct_over_cap_reports_sizes(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "gen", "--n", "8", "--size", "6", "--seed", "2")
        path = tmp_path / "big.json"
        path.write_text(out)
        code, _, err = run_cli(capsys, "solve", "--input", str(path), "--direct")
        assert code == 1
        assert "1679616" in err and "200000" in err

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys)
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys,
            "solve", "--input", str(path), "--out", str(out_path), "--max-iter", "1",
        )
        assert code == 2
        assert json.loads(out_path.read_text())["converged"] is False

    def test_trace_csv(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys)
        trace_path = tmp_path / "trace.csv"
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys,
            "solve", "--input", str(path), "--out", str(out_path),
            "--trace-csv", str(trace_path),
        )
        assert code == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "iter,rm_obj,pricing_obj"
        assert len(lines) == json.loads(out_path.read_text())["iterations"] + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        float(first[1]), float(first[2])  # parse cleanly

    def test_direct_flag_matches_cg(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys)
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(capsys, "solve", "--input", str(path), "--out", str(a_path))[0] == 0
        assert run_cli(
            capsys, "solve", "--input", str(path), "--direct", "--out", str(b_path)
        )[0] == 0
        obj_a = json.loads(a_path.read_text())["objective"]
        obj_b = json.loads(b_path.read_text())["objective"]
        assert abs(obj_a - obj_b) <= 1e-7 * (1 + abs(obj_b))


class TestCsvImport:
    def test_tabular_instance(self, tmp_path, capsys):
        csv_path = tmp_path / "inst.csv"
        csv_path.write_text(
            "measure,x,y,mass\n"
            "a,0.0,0.0,0.5\n"
            "a,1.0,0.0,0.5\n"
            "b,0.0,1.0,0.25\n"
            "b,1.0,1.0,0.75\n"
        )
        inst = load_instance(str(csv_path))
        assert inst.n == 2
        assert inst.sizes == (2, 2)
        assert np.allclose(inst.lambdas, [0.5, 0.5])
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "solve", "--input", str(csv_path), "--out", str(out_path)
        )
        assert code == 0

    def test_csv_bad_row(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("a,0.0,0.0,0.5\na,oops,0.0,0.5\n")
        code, _, err = run_cli(capsys, "solve", "--input", str(csv_path))
        assert code == 1
        assert "line 2" in err

    def test_csv_ragged_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "ragged.csv"
        csv_path.write_text("measure,x,y,mass\n"
                            "a,0.0,0.0,0.5\n"
                            "a,1.0,0.5\n"
                            "b,0.0,1.0,1.0\n")
        code, out, err = run_cli(capsys, "solve", "--input", str(csv_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "line 3" in err and "line 2" in err
