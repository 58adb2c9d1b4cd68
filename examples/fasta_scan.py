#!/usr/bin/env python3
"""FASTA database scan: the end-user search workflow.

Builds a small synthetic FASTA database (with two records containing
mutated copies of the query), writes it to disk, scans it with the
simulated accelerator, and prints an SSEARCH-style ranked report with
retrieved alignments — the workflow a bioinformatician would run
against the paper's board.

Usage::

    python examples/fasta_scan.py [records] [record_bp]
"""

import sys
import tempfile
from pathlib import Path

from repro.io.fasta import FastaRecord, read_fasta, write_fasta
from repro.io.generate import mutate, random_dna
from repro.kernels import HwSimBackend
from repro.scan import scan_database


def build_database(query: str, n_records: int, record_bp: int) -> list[FastaRecord]:
    records = []
    for i in range(n_records):
        seq = random_dna(record_bp, seed=1000 + i)
        if i in (2, n_records - 2):
            rate = 0.05 if i == 2 else 0.20
            planted = mutate(query, rate=rate, seed=2000 + i)
            pos = record_bp // 4
            seq = seq[:pos] + planted + seq[pos + len(planted):]
            records.append(FastaRecord(f"seq{i} (planted, {rate:.0%} mutated)", seq))
        else:
            records.append(FastaRecord(f"seq{i}", seq))
    return records


def main() -> None:
    n_records = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    record_bp = int(sys.argv[2]) if len(sys.argv) > 2 else 2000
    query = random_dna(80, seed=11)

    with tempfile.TemporaryDirectory() as tmp:
        db_path = Path(tmp) / "database.fasta"
        write_fasta(build_database(query, n_records, record_bp), db_path)
        records = read_fasta(db_path, alphabet="ACGT")
        print(f"database: {db_path.name}, {len(records)} records of ~{record_bp} bp")
        print(f"query   : {len(query)} bp\n")

        report = scan_database(
            query, records, kernel=HwSimBackend(elements=100), top=5, retrieve=2
        )
        print(report.render())
        for hit in report.hits:
            if hit.alignment is not None:
                print(f"\n>{hit.record}")
                print(hit.alignment.pretty())


if __name__ == "__main__":
    main()
