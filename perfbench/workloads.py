"""The benchmark's workloads: fixed kllab CLI runs, their inputs per seed,
and the checks that decide whether a run's output is correct.

Seed 0 runs each workload on the Bourbaki labelling of its group and
checks stdout byte for byte against the digest recorded in
``reference.json``.  Any other seed relabels the generators by a seeded
permutation, passes the group to the CLI as a ``file:`` matrix and maps
``--parabolic`` to match; such a run is checked on facts that do not
depend on the labelling (see ``invariant_summary``).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str                 # Bourbaki preset understood by the CLI
    rank: int
    bonds: tuple                # (s, t, m) with 1-based s < t, every m != 2
    argv: tuple                 # CLI arguments; "{group}" and "{parabolic}"
    cap: int | None = None      # length cap, also passed to the setup run
    parabolic: tuple = ()       # 1-based generator subset behind "{parabolic}"
    threads: int = 1

    def setup_argv(self, group: str) -> list[str]:
        """`kllab info` on the same group and cap: start-up, import and
        enumeration, which every command pays before its own work."""
        argv = ["info", "--group", group]
        if self.cap is not None:
            argv += ["--cap", str(self.cap)]
        return argv


# Why each workload is here: perfbench/README.md; BENCHMARK.json lists the
# ones a change is gated on.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="suite-H3",
        preset="H3", rank=3, bonds=((1, 2, 5), (2, 3, 3)),
        argv=("suite", "--group", "{group}", "--threads", "1")),
    Workload(
        name="parabolic-B4",
        preset="B4", rank=4, bonds=((1, 2, 3), (2, 3, 3), (3, 4, 4)),
        argv=("parabolic", "--group", "{group}", "--parabolic",
              "{parabolic}", "--flavor", "antispherical", "--family",
              "invkl"),
        parabolic=(2, 3, 4)),
    Workload(
        name="scan-AffA2",
        preset="Aff-A2", rank=3, bonds=((1, 2, 3), (1, 3, 3), (2, 3, 3)),
        argv=("scan", "--name", "inverse", "--group", "{group}", "--cap",
              "13", "--threads", "1"),
        cap=13),
    Workload(
        name="scan-AffA2-t2",
        preset="Aff-A2", rank=3, bonds=((1, 2, 3), (1, 3, 3), (2, 3, 3)),
        argv=("scan", "--name", "inverse", "--group", "{group}", "--cap",
              "13", "--threads", "2"),
        cap=13, threads=2),
)}


@dataclass
class Inputs:
    """What one seed hands the CLI; ``files`` must exist while it runs."""

    argv: list[str]
    setup_argv: list[str]
    files: dict[str, str] = field(default_factory=dict)


def relabelling(rank: int, seed: int) -> list[int]:
    """New 1-based label of each generator; the identity for seed 0."""
    perm = list(range(1, rank + 1))
    if seed:
        random.Random(seed).shuffle(perm)
    return perm


def make_inputs(w: Workload, seed: int, workdir: str) -> Inputs:
    """The CLI arguments for ``w`` at ``seed``.

    ``workdir`` is a path relative to the directory the CLI runs in; the
    relabelled matrix file is placed there.
    """
    if seed == 0:
        group, subset = w.preset, w.parabolic
        files = {}
    else:
        perm = relabelling(w.rank, seed)
        lines = [f"rank {w.rank}"]
        lines += sorted(f"{min(perm[s - 1], perm[t - 1])} "
                        f"{max(perm[s - 1], perm[t - 1])} {m}"
                        for s, t, m in w.bonds)
        path = f"{workdir}/{w.name}-seed{seed}.txt"
        group = "file:" + path
        subset = tuple(sorted(perm[t - 1] for t in w.parabolic))
        files = {path: "\n".join(lines) + "\n"}
    fill = {"{group}": group, "{parabolic}": ",".join(map(str, subset))}
    argv = [fill.get(a, a) for a in w.argv]
    return Inputs(argv, w.setup_argv(group), files)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

_SUBSET = re.compile(r"I=\{([^}]*)\}")
_SUBSET_LIST = re.compile(r"I \[([^\]]*)\]")
_PAIR_ROW = re.compile(r"  \((\S+), (\S+)\)\s+(.*)")


def _word_length(word: str) -> int:
    return 0 if word == "e" else len(word.split(","))


def invariant_summary(stdout: str) -> list[str]:
    """The facts of a text-format CLI output that survive relabelling.

    Keeps every status line with its check name, flavor, ``checked=`` and
    violation counts, and every table row as the two word lengths and the
    polynomial.  Drops the group spec, replaces a generator subset by its
    size and a violation's element words by a marker.  Sorted, so the
    result is a multiset.
    """
    out = []
    for line in stdout.splitlines():
        if line.startswith("    z="):
            out.append("    violation")
            continue
        line = re.sub(r"group [^,]+,", "group *,", line)
        line = _SUBSET.sub(lambda m: f"I#{len(m.group(1).split(','))}", line)
        line = _SUBSET_LIST.sub(
            lambda m: f"I #{len(m.group(1).split(','))}", line)
        row = _PAIR_ROW.fullmatch(line)
        if row:
            line = (f"  ({_word_length(row.group(1))}, "
                    f"{_word_length(row.group(2))}) {row.group(3)}")
        out.append(line)
    return sorted(out)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary_digest(stdout: bytes) -> str:
    text = stdout.decode("utf-8", errors="replace")
    return digest("\n".join(invariant_summary(text)).encode())


def fingerprint(code: int, stdout: bytes) -> dict:
    """What ``reference.json`` records for one command at seed 0."""
    return {"exit": code, "sha256": digest(stdout),
            "summary_sha256": summary_digest(stdout)}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def output_ok(ref: dict, seed: int, code: int, stdout: bytes) -> bool:
    """Seed 0: exit code and stdout digest.  Other seeds: exit code and
    the digest of the relabelling-invariant summary."""
    if code != ref["exit"]:
        return False
    if seed == 0:
        return digest(stdout) == ref["sha256"]
    return summary_digest(stdout) == ref["summary_sha256"]
