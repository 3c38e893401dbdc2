import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from heilbronn.cli import (EXIT_DISAGREEMENT, EXIT_GOLDEN, EXIT_INVALID,
                           EXIT_INVARIANT, EXIT_OK, main, run_verify)
from heilbronn.modarith import InvalidInput
from heilbronn.spectra import spectrum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrumCommand:
    def test_csv_contract(self, capsys):
        code, out, _ = run(capsys, "spectrum", "-p", "7", "--csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == EXIT_OK
        assert rows[0] == ["ell", "value", "err_bound"]
        assert len(rows) == 8

    def test_invalid_prime(self, capsys):
        code, _, err = run(capsys, "spectrum", "-p", "4")
        assert code == EXIT_INVALID
        assert "prime" in err

    @pytest.mark.parametrize("command", ["spectrum", "fermat", "verify"])
    def test_one_validator_with_cap(self, capsys, command):
        # 2^20 + 7 is prime and above MAX_PRIME
        code, _, err = run(capsys, command, "-p", "1048583")
        assert code == EXIT_INVALID
        assert "exceeds supported cap" in err
        code, _, err = run(capsys, command, "-p", "15")
        assert code == EXIT_INVALID
        assert "15 is not an odd prime" in err

    def test_p3_value_matches_direct_sum(self, capsys):
        code, out, _ = run(capsys, "spectrum", "-p", "3", "--json")
        d = json.loads(out)
        # H_3(g^3) = H_3(1) = 2 cos(2 pi / 9) + ... over l = 1, 2
        import math
        expected = sum(math.cos(2 * math.pi * l ** 3 / 9) for l in (1, 2))
        assert d["values"][2] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("command", ["spectrum", "fermat"])
    def test_precision_option_refused(self, capsys, command):
        # the spectrum is float64 only; argparse refuses the old option
        with pytest.raises(SystemExit) as exc:
            main([command, "-p", "5", "--precision", "256"])
        out = capsys.readouterr()
        assert exc.value.code == EXIT_INVALID
        assert out.out == ""
        assert "unrecognized arguments: --precision" in out.err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        code, _, _ = run(capsys, "spectrum", "-p", "5", "--json",
                         "-o", str(path))
        assert code == EXIT_OK
        assert json.loads(path.read_text())["p"] == 5


class TestFermatCommand:
    def test_known_count(self, capsys):
        code, out, _ = run(capsys, "fermat", "-p", "7", "--json")
        d = json.loads(out)
        assert code == EXIT_OK
        assert d[0]["F"] == 2 and d[0]["solution_count"] == 4116

    def test_precision_failure_exit_code(self, capsys, monkeypatch):
        # a spectrum whose F residual is 0.42 fails the rounding gate; the
        # exact count answers, so the exit code is 0 and the JSON names the
        # method
        import heilbronn.cli as cli_mod

        def perturbed_spectrum(ctx):
            s = spectrum(ctx)
            return dataclasses.replace(s, values=s.values + 0.15)

        monkeypatch.setattr(cli_mod, "spectrum", perturbed_spectrum)
        code, out, err = run(capsys, "fermat", "-p", "13", "--json")
        assert code == EXIT_OK
        assert err == ""
        (d,) = json.loads(out)
        assert d["method"] == "exact"
        assert d["F"] == 2
        assert d["residual"] == pytest.approx(0.42, abs=0.01)

    def test_naive_count_capped(self, capsys):
        code, out, err = run(capsys, "fermat", "-p", "211", "--method", "both")
        assert code == EXIT_INVALID
        assert out == ""
        assert "p <= 199" in err

    def test_divisible_coefficient(self, capsys):
        code, _, err = run(capsys, "fermat", "-p", "7", "-a", "7")
        assert code == EXIT_INVALID

    def test_method_both_matches(self, capsys):
        code, out, _ = run(capsys, "fermat", "-p", "31", "--method", "both")
        assert code == EXIT_OK
        assert "match=true" in out

    def test_both_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "fermat", "-p", "13", "--method", "both",
                           "--json")
        d = json.loads(out)
        assert d["match"] is True
        assert {r["method"] for r in d["results"]} == {"naive", "spectral"}


class TestTableCommand:
    def test_pmax_100(self, capsys):
        code, out, _ = run(capsys, "table", "--pmax", "100", "--csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == EXIT_OK
        assert len(rows) == 24
        assert next(r for r in rows if r["p"] == "59")["F"] == "12"
        assert all(r["match"] == "true" for r in rows)

    def test_pmax_3(self, capsys):
        code, out, _ = run(capsys, "table", "--pmax", "3", "--json")
        rows = json.loads(out)
        assert code == EXIT_OK
        assert rows == [{"p": 3, "F": 0, "golden": 0, "match": True}]

    def test_invalid_pmax(self, capsys):
        code, _, _ = run(capsys, "table", "--pmax", "2")
        assert code == EXIT_INVALID

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        import heilbronn.fermat as fm
        monkeypatch.setattr(fm, "golden_table", lambda: [(3, 99)])
        code, _, err = run(capsys, "table", "--pmax", "10")
        assert code == EXIT_GOLDEN
        assert "mismatch" in err


class TestVerifyCommand:
    def test_full_p13(self, capsys):
        code, out, _ = run(capsys, "verify", "-p", "13", "--full")
        assert code == EXIT_OK
        assert "enumeration-agreement" in out
        assert "FAIL" not in out

    def test_quick_larger_prime(self, capsys):
        code, out, _ = run(capsys, "verify", "-p", "211", "--quick")
        assert code == EXIT_OK

    def test_not_prime(self, capsys):
        code, _, _ = run(capsys, "verify", "-p", "9")
        assert code == EXIT_INVALID

    def test_quick_cap_refused_before_allocating(self, capsys, monkeypatch):
        # p = 10007 would need several GB: refused before any p^2 structure
        import heilbronn.cli as cli_mod
        import heilbronn.spectra as spectra_mod

        def refuse(*args):
            raise AssertionError("p^2-sized structure built")

        monkeypatch.setattr(spectra_mod, "heilbronn_partition", refuse)
        monkeypatch.setattr(spectra_mod, "build_U", refuse)
        assert cli_mod.VERIFY_MAX_PRIME < 10007
        code, out, err = run(capsys, "verify", "-p", "10007")
        assert code == EXIT_INVALID
        assert out == ""
        assert f"capped at p <= {cli_mod.VERIFY_MAX_PRIME}" in err
        with pytest.raises(InvalidInput, match="quick verification"):
            run_verify(10007)
        code, _, err = run(capsys, "verify", "-p", "211", "--full")
        assert code == EXIT_INVALID
        assert "full verification is capped at p <= 199" in err

    def test_run_verify_p1009_passes(self):
        # the generic table is O(N*|A| + N^2); at Theta(p^3) this took ~36 s
        rows = run_verify(1009)
        assert [name for name, ok, _ in rows if not ok] == []

    def test_third_moment_block_mismatch_is_a_failed_row(self, capsys,
                                                         monkeypatch):
        import heilbronn.cli as cli_mod

        fft_block = cli_mod._third_moment_block

        def corrupted(s):
            block, residual = fft_block(s)
            block[3, 5] += 1
            return block, residual

        monkeypatch.setattr(cli_mod, "_third_moment_block", corrupted)
        code, out, err = run(capsys, "verify", "-p", "13")
        assert code == EXIT_INVARIANT
        assert "first failing invariant: third-moment-block" in err
        assert "Traceback" not in err
        row = next(line for line in out.splitlines()
                   if line.startswith("third-moment-block"))
        assert "FAIL" in row

    def test_library_builds_no_pow_loop_table(self, monkeypatch):
        # every consumer reads the context's table, so the pow loop can go
        import sys

        import heilbronn.fermat as fermat_mod
        from heilbronn.modarith import build_context

        def refuse(p):
            raise AssertionError("pth_power_table called")

        for name, module in list(sys.modules.items()):
            if name.startswith("heilbronn") and hasattr(module, "pth_power_table"):
                monkeypatch.setattr(module, "pth_power_table", refuse)
        ctx = build_context(101)
        s = spectrum(ctx)
        tensor = fermat_mod.structure_constants_spectral_all(ctx, s)
        assert (tensor.base.sum(axis=0) == 99).all()
        assert fermat_mod._fermat_F_exact(ctx, 1, 1, 1) == tensor.c(101, 101, 101)
        assert all(ok for _, ok, _ in run_verify(13))

    def test_run_verify_names(self):
        names = [name for name, _, _ in run_verify(7, "full")]
        assert "spectrum-identities" in names
        assert "root-independence" in names
        assert "naive-agreement" in names


class TestBenchCommand:
    def test_reps_validation(self, capsys):
        code, _, _ = run(capsys, "bench", "--reps", "1",
                         "--pmin", "7", "--pmax", "13")
        assert code == EXIT_INVALID

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "bench", "--pmin", "50", "--pmax", "40")
        assert code == EXIT_INVALID

    def test_small_run_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "--pmin", "7", "--pmax", "17",
                           "--csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == EXIT_OK
        assert {r["method"] for r in rows} == {"naive", "spectral"}

    @pytest.mark.parametrize("task,target,wrong", [
        ("single-F", "fermat_count_naive_reduced", -1),
        ("all-triples", "structure_block_enumerated", np.full((7, 9), -1)),
    ])
    def test_disagreement_exit_code(self, capsys, monkeypatch,
                                    task, target, wrong):
        import heilbronn.bench as bench_mod
        monkeypatch.setattr(bench_mod, target, lambda *args: wrong)
        code, out, err = run(capsys, "bench", "--task", task,
                             "--pmin", "7", "--pmax", "7")
        assert code == EXIT_DISAGREEMENT
        assert "disagreement at p=7" in err
        assert out == ""

    def test_all_triples_gate(self, capsys):
        code, out, _ = run(capsys, "bench", "--task", "all-triples",
                           "--pmin", "7", "--pmax", "13", "--json")
        d = json.loads(out)
        assert code == EXIT_OK
        assert d["task"] == "all-triples"
