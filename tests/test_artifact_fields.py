"""Golden decisions: ``tools/artifact_matrix.py --fields`` against ``artifact_fields.txt``.

The file pins what every report of the artifact matrix decides: one line per verdict and
per witness, and ``exit=<code> <sha256 of stderr>`` for a case that fails.  Statuses,
witness kinds, s, t, first violation times, violation times and labels, notes, exit codes
and error digests must match exactly.  Margins and magnitudes must match to
``REL_TOL`` relative (``ABS_TOL`` absolute near zero): LAPACK and SIMD builds differ in
the last bits.  A change that moves a decision regenerates the file with

    PYTHONPATH=src python3 tools/artifact_matrix.py --fields > tests/artifact_fields.txt

and its diff is the evidence.  The sha256 lines of the tool, without ``--fields``, stay
a same-host comparison of two checkouts.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("artifact_fields.txt")
REL_TOL = 1e-9
ABS_TOL = 1e-12
WITNESSES = ("trace_norm_witness", "blp_witness")


def _number(token: str):
    return None if token == "None" else float(token)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (math.isnan(a) and math.isnan(b)) or a == b or \
        math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _verdict_tail(rest: str) -> tuple:
    """(violations, note) from '<list repr> <note repr>'."""
    start = 0
    while (cut := rest.find("] ", start)) >= 0:
        try:
            return ast.literal_eval(rest[:cut + 1]), ast.literal_eval(rest[cut + 2:])
        except (SyntaxError, ValueError):
            start = cut + 1
    raise ValueError(f"not a verdict tail: {rest!r}")


def _mismatch(old: str, new: str) -> bool:
    """Whether two ``--fields`` lines for the same case and key decide differently."""
    old_head, new_head = old.split(" ", 2), new.split(" ", 2)
    if old_head[:2] != new_head[:2]:
        return True
    key = old_head[1]
    if key.startswith("exit=") or old_head[2:] == ["none"] or new_head[2:] == ["none"]:
        return old != new
    if key in WITNESSES:  # kind s t magnitude
        (kind, s, t, mag), (kind2, s2, t2, mag2) = old_head[2].split(), new_head[2].split()
        return (kind, s, t) != (kind2, s2, t2) or not _close(float(mag), float(mag2))
    (status, margin, first, rest), (status2, margin2, first2, rest2) = (
        h[2].split(" ", 3) for h in (old_head, new_head))
    (violations, note), (violations2, note2) = _verdict_tail(rest), _verdict_tail(rest2)
    return (status != status2 or first != first2 or note != note2
            or not _close(_number(margin), _number(margin2))
            or len(violations) != len(violations2)
            or any((t, label) != (t2, label2) or not _close(m, m2)
                   for (t, label, m), (t2, label2, m2) in zip(violations, violations2)))


def test_artifact_matrix_decisions_match_the_golden_file():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_matrix.py"), "--fields"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    golden, fresh = GOLDEN.read_text().splitlines(), run.stdout.splitlines()
    assert [line.split(" ", 2)[:2] for line in fresh] == \
        [line.split(" ", 2)[:2] for line in golden]
    moved = [f"- {old}\n+ {new}" for old, new in zip(golden, fresh) if _mismatch(old, new)]
    assert not moved, f"{len(moved)} decisions moved:\n" + "\n".join(moved[:20])


def test_the_comparison_tolerates_last_bits_only():
    margin = "c-s42 p_sufficient holds 0.5 None [(5.0, 'gamma_1', -0.25)] ''"
    assert not _mismatch(margin, margin.replace("0.5", "0.5000000000000001"))
    assert not _mismatch(margin, margin.replace("-0.25", "-0.25000000000000006"))
    for moved in (margin.replace("0.5", "-0.5"), margin.replace("holds", "violated"),
                  margin.replace("None", "0.0125"), margin.replace("-0.25", "0.25"),
                  margin.replace("(5.0", "(4.9875"), margin.replace("gamma_1", "gamma_2"),
                  margin.replace("''", "'sampled'")):
        assert _mismatch(margin, moved)
    witness = "c-s42 trace_norm_witness positivity 0.0 2.5 0.125"
    assert not _mismatch(witness, witness.replace("0.125", "0.12500000000000003"))
    for moved in (witness.replace("2.5", "2.4875"), witness.replace("positivity", "blp"),
                  witness.replace("0.125", "0.1251"), "c-s42 trace_norm_witness none"):
        assert _mismatch(witness, moved)
    failed = "c-s42 exit=3 ab12"
    assert _mismatch(failed, "c-s42 exit=2 ab12") and _mismatch(failed, "c-s42 exit=3 ab13")
