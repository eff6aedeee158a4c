"""Recorded outputs of the default seed, and the comparison against them.

``reference/seed<N>/`` holds every output file of every workload for the
default seed, gzip-compressed, plus ``SHA256SUMS`` of the uncompressed bytes
and ``environment.json`` (where and at which commit they were recorded).
``echo-max`` is recorded with ``--workers 1`` and run with ``--workers 2``,
so its comparison is also the determinism check.

A run on the default seed must reproduce each file byte for byte.  On a
mismatch the non-numeric text must still agree exactly and every number
must agree within ``REL_TOL`` (``REPORT_REL_TOL`` for fit reports and
field estimates, whose iteration counts are not compared); anything else
fails.  Other seeds get only the oracle checks of ``workloads.py``: a
reference made on one seed never counts as a pass on another.

Record at a commit whose outputs are known good, from the repository root:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: Relative tolerance for CSV and JSON values when the bytes differ.
REL_TOL = 1e-9
#: Relative tolerance for fit reports and field estimates when the bytes differ.
REPORT_REL_TOL = 1e-6
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def reference_dir(seed: int) -> str:
    return os.path.join(HERE, "reference", f"seed{seed}")


def _numbers_agree(got: str, want: str, report: bool) -> str | None:
    """None when the texts agree up to numbers within tolerance, else a reason."""
    rel_tol = REPORT_REL_TOL if report else REL_TOL
    if report:
        drop = lambda text: "".join(  # noqa: E731
            line for line in text.splitlines(True) if not line.startswith("iterations"))
        got, want = drop(got), drop(want)
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return "text differs outside the numbers"
    worst = 0.0
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        a, b = float(a), float(b)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300) if a != b else 0.0)
    if worst > rel_tol:
        return f"largest relative difference {worst:.3g} > {rel_tol:g}"
    return None


def compare(workload: str, seed: int, out: str, ops) -> dict[str, list[str]]:
    """Failures per operation against the recorded outputs of ``seed``."""
    ref = os.path.join(reference_dir(seed), workload)
    if not os.path.isdir(ref):
        return {}
    failures: dict[str, list[str]] = {}
    for op in ops:
        for name in op.outputs:
            try:
                with open(os.path.join(out, name), "rb") as fh:
                    got = fh.read()
                with gzip.open(os.path.join(ref, name + ".gz"), "rb") as fh:
                    want = fh.read()
            except OSError as exc:
                failures.setdefault(op.name, []).append(f"{name}: {exc}")
                continue
            if got == want:
                continue
            reason = _numbers_agree(got.decode(), want.decode(), name.endswith(".txt"))
            if reason is not None:
                failures.setdefault(op.name, []).append(f"{name} differs from the reference: {reason}")
    return failures


def _environment(root: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha}


def record(root: str) -> int:
    """Run every workload once on the default seed and store its outputs."""
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import DEFAULT_SEED, WORKLOADS

    target = reference_dir(DEFAULT_SEED)
    scratch = os.path.join(root, ".perfbench", "record")
    shutil.rmtree(scratch, ignore_errors=True)
    sums = []
    for name, workload in WORKLOADS.items():
        out = os.path.join(scratch, name)
        os.makedirs(out)
        ops = workload.plan(DEFAULT_SEED, out, 1)
        for op in ops:
            if op.run() != 0:
                print(f"{name}/{op.name} failed; nothing recorded", file=sys.stderr)
                return 1
        bad = {op: f for op, f in workload.check(DEFAULT_SEED, out).items() if f}
        if bad:
            print(f"{name}: oracle checks fail, nothing recorded: {bad}", file=sys.stderr)
            return 1
        dest = os.path.join(target, name)
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        for op in ops:
            for output in op.outputs:
                with open(os.path.join(out, output), "rb") as fh:
                    data = fh.read()
                # mtime=0 keeps the compressed bytes reproducible
                with open(os.path.join(dest, output + ".gz"), "wb") as raw, \
                        gzip.GzipFile(output, "wb", 9, raw, mtime=0) as gz:
                    gz.write(data)
                sums.append(f"{hashlib.sha256(data).hexdigest()}  {name}/{output}\n")
    with open(os.path.join(target, "SHA256SUMS"), "w", encoding="utf-8") as fh:
        fh.writelines(sums)
    with open(os.path.join(target, "environment.json"), "w", encoding="utf-8") as fh:
        json.dump(_environment(root), fh, indent=1)
        fh.write("\n")
    shutil.rmtree(scratch, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(scratch))
    print(f"recorded {len(sums)} outputs under {target}")
    return 0


if __name__ == "__main__":
    sys.exit(record(os.getcwd()))
