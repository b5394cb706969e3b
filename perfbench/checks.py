"""Output checks for one job; any failure counts the job as failed.

A job fails when it raises or exits non-zero, prints a FAIL or WARN line, or
(surgery jobs) its CSV does not parse, its chunk count differs from the
schedule for the input length, a row spends more than its planned change
density, or the re-read `--save-y` file does not reproduce the CSV distance
to six decimals.  The distance is recomputed here from the raw files, not
with the program's own reader or aggregator.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np

CHUNK_HEADER = "j,s_j,delta_planned,delta_achieved,t_planned,t_achieved"
SUMMARY_HEADER = "dim_before,dim_after,distance,bound,slack"
MIN_TAIL_CHUNK = 10
_BAD_LINE = re.compile(r"^(FAIL|WARN)\b", re.MULTILINE)
_PASS_LINE = re.compile(r"^PASS\b", re.MULTILINE)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def boundary(j: int) -> int:
    """n_j = sum_{i<j} i^2: the first bit of chunk j."""
    return (j - 1) * j * (2 * j - 1) // 6


def chunk_count(length: int) -> int:
    """Complete chunks that fit in `length` bits."""
    count = 0
    while boundary(count + 2) <= length:
        count += 1
    return count


def declared_length(path: str) -> int:
    """Bit count from the `<path>.len` sidecar, which holds len=<bits>."""
    with open(f"{path}.len", "r", encoding="ascii") as fh:
        header = fh.readline().strip()
    if not header.startswith("len="):
        raise ValueError(f"{path}.len: malformed header {header!r}")
    return int(header[4:])


def read_bits(path: str) -> np.ndarray:
    """Packed MSB-first bytes, truncated to the sidecar's declared length."""
    length = declared_length(path)
    bits = np.unpackbits(np.fromfile(path, dtype=np.uint8), bitorder="big")
    if bits.size < length:
        raise ValueError(f"{path}: {bits.size} bits, {length} declared")
    return bits[:length]


def tail_max_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Max over tail boundaries of the prefix Hamming density, with the tail
    start surgery uses by default: min(max(10, count // 2), count)."""
    count = chunk_count(x.size)
    counts = np.array([np.count_nonzero(x[boundary(j):boundary(j + 1)]
                                        != y[boundary(j):boundary(j + 1)])
                       for j in range(1, count + 1)], dtype=np.int64)
    js = np.arange(1, count + 1, dtype=np.int64)
    n_next = js * (js + 1) * (2 * js + 1) // 6
    series = np.cumsum(counts) / n_next.astype(np.float64)
    tail_start = min(max(MIN_TAIL_CHUNK, count // 2), count)
    return float(series[max(0, tail_start - 2):].max())


def parse_surgery_csv(text: str):
    """Return (rows, summary) or raise ValueError if the CSV is malformed."""
    lines = text.split("\n")
    if not lines or lines[0] != CHUNK_HEADER:
        raise ValueError("missing chunk header")
    try:
        blank = lines.index("")
    except ValueError as exc:
        raise ValueError("missing blank line before the summary") from exc
    rows = []
    for expect_j, line in enumerate(lines[1:blank], start=1):
        fields = line.split(",")
        if len(fields) != 6 or int(fields[0]) != expect_j:
            raise ValueError(f"bad chunk row {line!r}")
        rows.append(dict(zip(CHUNK_HEADER.split(","), fields)))
        for key in CHUNK_HEADER.split(",")[1:]:
            float(rows[-1][key])
    if lines[blank + 1:blank + 2] != [SUMMARY_HEADER]:
        raise ValueError("missing summary header")
    fields = lines[blank + 2].split(",") if len(lines) > blank + 2 else []
    if len(fields) != 5 or lines[blank + 3:] != [""]:
        raise ValueError("bad summary row")
    summary = dict(zip(SUMMARY_HEADER.split(","), fields))
    for value in fields:
        float(value)
    return rows, summary


def check_job(job, rc, stdout: str, error: str | None):
    """Return (problems, details) for one finished job."""
    problems = []
    details: dict = {}
    if error is not None:
        problems.append(f"raised: {error}")
    if rc != 0:
        problems.append(f"exit code {rc}")
    bad = _BAD_LINE.findall(stdout)
    if bad:
        problems.append(f"{len(bad)} FAIL/WARN line(s)")
    if problems:
        return problems, details
    if job.kind == "verify":
        if not _PASS_LINE.search(stdout):
            problems.append("no PASS line")
        return problems, details

    try:
        with open(job.csv_path, "r", encoding="ascii") as fh:
            rows, summary = parse_surgery_csv(fh.read())
    except (OSError, ValueError) as exc:
        return [f"csv: {exc}"], details
    expected = chunk_count(declared_length(job.input_path))
    if len(rows) != expected:
        problems.append(f"{len(rows)} chunks, schedule has {expected}")
    over = [r["j"] for r in rows
            if float(r["delta_achieved"]) > float(r["delta_planned"])]
    if over:
        problems.append(f"delta_achieved > delta_planned at chunks {over[:5]}")
    details["chunks"] = len(rows)
    details["target_hits"] = sum(
        float(r["t_achieved"]) >= float(r["t_planned"]) for r in rows)
    if job.y_path is not None:
        x = read_bits(job.input_path)
        y = read_bits(job.y_path)
        if y.size != x.size:
            problems.append(f"saved y has {y.size} bits, x has {x.size}")
        else:
            measured = f"{tail_max_distance(x, y):.6f}"
            if measured != summary["distance"]:
                problems.append(
                    f"re-read distance {measured} != csv {summary['distance']}")
    return problems, details


def output_hashes(job, stdout: str) -> dict:
    hashes = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for path in job.outputs:
        try:
            hashes[os.path.basename(path)] = sha256_file(path)
        except OSError:
            hashes[os.path.basename(path)] = None
    return hashes
