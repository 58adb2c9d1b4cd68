"""Tests for the scan application and the CLI."""

import pytest

from repro.align.smith_waterman import sw_score
from repro.cli import main
from repro.io.fasta import FastaRecord, write_fasta
from repro.io.generate import mutate, random_dna
from repro.kernels import HwSimBackend
from repro.scan import scan_database


@pytest.fixture()
def database_records():
    """Ten records; record 'hit3' contains a near-copy of the query."""
    query = random_dna(60, seed=201)
    records = []
    for i in range(10):
        seq = random_dna(300, seed=300 + i)
        if i == 3:
            planted = mutate(query, rate=0.05, seed=400)
            seq = seq[:100] + planted + seq[100 + len(planted):]
        records.append(FastaRecord(f"hit{i}", seq))
    return query, records


class TestScan:
    def test_best_record_is_the_planted_one(self, database_records):
        query, records = database_records
        report = scan_database(query, records)
        assert report.best().record == "hit3"
        assert report.best().score == sw_score(query, records[3].sequence)

    def test_rank_order_non_increasing(self, database_records):
        query, records = database_records
        report = scan_database(query, records)
        scores = [h.score for h in report.hits]
        assert scores == sorted(scores, reverse=True)

    def test_retrieval_limited_to_top(self, database_records):
        query, records = database_records
        report = scan_database(query, records, retrieve=2, top=5)
        retrieved = [h.alignment is not None for h in report.hits]
        assert retrieved[:2] == [True, True]
        assert not any(retrieved[2:])

    def test_retrieved_alignment_is_exact(self, database_records):
        query, records = database_records
        report = scan_database(query, records, retrieve=1)
        best = report.best()
        assert best.alignment.score == best.score
        best.alignment.validate(query, records[3].sequence)

    def test_accelerator_locate(self, database_records):
        query, records = database_records
        sw = scan_database(query, records, retrieve=0)
        hw = scan_database(query, records, kernel=HwSimBackend(elements=64), retrieve=0)
        assert [(h.record, h.score) for h in hw.hits] == [
            (h.record, h.score) for h in sw.hits
        ]

    def test_min_score_filters(self, database_records):
        query, records = database_records
        report = scan_database(query, records, min_score=40)
        assert all(h.score >= 40 for h in report.hits)
        assert report.records_scanned == 10

    def test_accounting(self, database_records):
        query, records = database_records
        report = scan_database(query, records, retrieve=0)
        assert report.cells == sum(len(query) * len(r.sequence) for r in records)
        assert report.cups > 0

    def test_sweep_and_total_seconds(self, database_records):
        """CUPS is defined on the phase-1 sweep; retrieval is extra."""
        query, records = database_records
        report = scan_database(query, records, retrieve=3)
        assert 0 < report.sweep_seconds <= report.total_seconds
        assert report.seconds == report.total_seconds  # back-compat alias
        assert report.cups == report.cells / report.sweep_seconds

    def test_render(self, database_records):
        query, records = database_records
        text = scan_database(query, records).render()
        assert "hit3" in text
        assert "rank" in text

    def test_render_zero_hits_explicit_row(self, database_records):
        """Regression: an empty scan must say so, not render a bare header."""
        query, records = database_records
        report = scan_database(query, records, min_score=10_000)
        assert not report.hits
        text = report.render()
        assert "no hits >= min_score 10000" in text
        assert "rank" in text  # header still present

    def test_plain_strings_accepted(self):
        report = scan_database("ACGT", ["TTACGTTT", "GGGG"], retrieve=0)
        assert report.best().score == 4

    def test_tuples_accepted(self):
        report = scan_database("ACGT", [("a", "ACGT"), ("b", "CCCC")], retrieve=0)
        assert report.best().record == "a"

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            scan_database("AC", [], top=0)
        with pytest.raises(ValueError):
            scan_database("AC", [], retrieve=-1)


class TestCLI:
    def test_align_inline(self, capsys):
        assert main(["align", "TATGGAC", "TAGTGACT"]) == 0
        out = capsys.readouterr().out
        assert "score=3" in out

    def test_align_rtl_engine(self, capsys):
        assert main(["align", "ACGT", "ACGT", "--engine", "rtl", "--elements", "4"]) == 0
        assert "score=4" in capsys.readouterr().out

    def test_align_custom_scores(self, capsys):
        assert main(["align", "ACGT", "ACGT", "--match", "3"]) == 0
        assert "score=12" in capsys.readouterr().out

    def test_align_from_fasta(self, tmp_path, capsys):
        f1 = tmp_path / "q.fasta"
        f2 = tmp_path / "d.fasta"
        write_fasta([("q", "TATGGAC")], f1)
        write_fasta([("d", "TAGTGACT")], f2)
        assert main(["align", f"@{f1}", f"@{f2}"]) == 0
        assert "score=3" in capsys.readouterr().out

    def test_scan_command(self, tmp_path, capsys, database_records):
        query, records = database_records
        db = tmp_path / "db.fasta"
        write_fasta(records, db)
        assert main(["scan", query, str(db), "--retrieve", "1"]) == 0
        out = capsys.readouterr().out
        assert "hit3" in out
        assert ">hit3" in out  # retrieved alignment block

    @pytest.mark.parametrize("number", ["1", "2", "3", "5", "6", "7", "8"])
    def test_figures_command(self, number, capsys):
        assert main(["figures", number]) == 0
        assert capsys.readouterr().out.strip()

    def test_design_command(self, capsys):
        assert main(["design", "--elements", "100"]) == 0
        out = capsys.readouterr().out
        assert "slices_pct : 47" in out
        assert "max elements : 154" in out

    def test_verify_command(self, capsys):
        assert main(["verify", "--vectors", "5"]) == 0
        assert "0 failures" in capsys.readouterr().out

    def test_module_entry(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "figures", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "best score 3" in proc.stdout


class TestScanStatistics:
    def test_evalue_column_populated(self, database_records):
        from repro.analysis.stats import calibrate

        query, records = database_records
        stats = calibrate(trials=30, seed=9)
        report = scan_database(query, records, retrieve=0, statistics=stats)
        assert all(h.evalue is not None for h in report.hits)
        # The planted record's hit is far more significant.
        best = report.best()
        worst = report.hits[-1]
        assert best.evalue < worst.evalue
        assert "E-value" in report.render()

    def test_cli_scan_evalues(self, tmp_path, capsys, database_records):
        query, records = database_records
        db = tmp_path / "db.fasta"
        write_fasta(records, db)
        assert main(["scan", query, str(db), "--retrieve", "0", "--evalues"]) == 0
        out = capsys.readouterr().out
        assert "E-value" in out


class TestCLIVerilog:
    def test_emit_pe(self, capsys):
        assert main(["verilog", "pe"]) == 0
        out = capsys.readouterr().out
        assert "module sw_pe" in out
        assert "endmodule" in out

    def test_emit_array(self, capsys):
        assert main(["verilog", "array", "--elements", "4"]) == 0
        out = capsys.readouterr().out
        assert "pe4_d_out" in out

    def test_score_width_flag(self, capsys):
        assert main(["verilog", "pe", "--score-width", "12"]) == 0
        assert "[11:0]" in capsys.readouterr().out

    def test_emit_affine_pe(self, capsys):
        assert main(["verilog", "affine-pe"]) == 0
        assert "module sw_affine_pe" in capsys.readouterr().out

    def test_emit_controller(self, capsys):
        assert main(["verilog", "controller", "--elements", "3"]) == 0
        assert "module sw_controller" in capsys.readouterr().out


class TestReport:
    def test_build_report_key_lines(self):
        from repro.analysis.summary import build_report

        text = build_report()
        assert "# Reproduction report" in text
        assert "246.9" in text and "246.7" in text  # paper vs reproduced
        assert "best score 3" in text  # figure 2
        assert "154 elements" in text  # capacity

    def test_cli_report_stdout(self, capsys):
        assert main(["report"]) == 0
        assert "Section 6 headline" in capsys.readouterr().out

    def test_cli_report_file(self, tmp_path, capsys):
        out = tmp_path / "REPORT.md"
        assert main(["report", "--out", str(out)]) == 0
        assert out.exists()
        assert "Table 2" in out.read_text()
