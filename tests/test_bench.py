import json

import pytest

import heilbronn.bench as bench_mod
from heilbronn.bench import bench_all_triples, bench_single_F
from heilbronn.modarith import InvalidInput


class TestValidation:
    def test_rejects_few_reps(self):
        with pytest.raises(InvalidInput):
            bench_single_F([7, 11], reps=1)

    def test_rejects_composite(self):
        with pytest.raises(InvalidInput):
            bench_single_F([9], reps=3)

    def test_rejects_oversized_naive(self):
        with pytest.raises(InvalidInput):
            bench_single_F([211], reps=3)
        with pytest.raises(InvalidInput):
            bench_all_triples([67], reps=3)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            bench_single_F([], reps=3)


@pytest.fixture(scope="module")
def report():
    return bench_single_F([13, 31, 61], reps=3)


class TestSingleF:
    def test_sample_layout(self, report):
        assert report.task == "single-F"
        assert len(report.samples) == 6
        assert {s.method for s in report.samples} == {"naive", "spectral"}
        assert all(s.repetitions == 3 and s.seconds > 0 for s in report.samples)

    def test_slopes_present(self, report):
        assert set(report.fitted_slopes) == {"naive", "spectral"}

    def test_csv_and_json(self, report):
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "p,method,seconds"
        assert len(lines) == 7
        d = json.loads(report.to_json())
        assert d["task"] == "single-F"
        assert len(d["samples"]) == 6

    def test_gnuplot_blocks(self, report):
        text = report.to_gnuplot()
        assert "# method: naive" in text and "# method: spectral" in text


class TestAllTriples:
    def test_tensor_gate_and_slopes(self):
        report = bench_all_triples([7, 13, 23], reps=3)
        assert report.task == "all-triples"
        assert len(report.samples) == 6
        assert set(report.fitted_slopes) == {"naive", "spectral"}
        # naive exhaustion grows much faster than the matrix route
        assert report.fitted_slopes["naive"] > report.fitted_slopes["spectral"]


class TestDisagreement:
    """A naive/spectral mismatch raises RuntimeError, which python -O keeps."""

    def test_single_F(self, monkeypatch):
        monkeypatch.setattr(bench_mod, "fermat_count_naive_reduced",
                            lambda ctx, a, b, c: -1)
        with pytest.raises(RuntimeError, match="method disagreement at p=7"):
            bench_single_F([7], reps=3)

    def test_all_triples(self, monkeypatch):
        real = bench_mod.structure_block_enumerated

        def off_by_one(ctx, i):
            block = real(ctx, i)
            block[0, 0] += 1
            return block

        monkeypatch.setattr(bench_mod, "structure_block_enumerated", off_by_one)
        with pytest.raises(RuntimeError, match="tensor disagreement at p=7"):
            bench_all_triples([7], reps=3)
