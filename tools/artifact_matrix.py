"""Hash the artifacts of ``paulidyn dynamics`` over a fixed matrix of cases.

Runs the command in-process for every case of the ROADMAP preset matrix
(eternal-qubit; eternal-general, avg-decoherence and four semigroup constant
sets at d in {2, 3, 5, 7}; eternal-general and avg-decoherence at d in
{11, 13}), avg-decoherence at d=31 (the widest trajectory.csv, with tied and
constant columns), eternal-general at d=31 (the widest pure-state see-saw), a
few d=2 tanh rate sets, one d=3 and one d=5 tanh set with a BLP witness, each
also with ``--blp-pairs=20`` (the d+1 antipodal pairs, then random state pairs;
at d=3 the witness comes from a random pair), the first and third d=2 tanh sets
and eternal-general at d=13 with ``--blp-pairs=20`` too, eternal-general at d=3
and d=5 with ``--attempts=0`` (route 1 alone) and with ``--refine-iters=0``,
the d=5 tanh set with ``--blp-pairs=0``, a d=23 semigroup whose only rising
eigenvalue is lambda_24 (``semigroup-axis24-d23``: a BLP witness on the last
axis, which a probe of the first 20 bases misses), the d=3 tanh set on a
10^4-step grid (every CSV column distinct), 10^4-step eternal-general (d=3) and
avg-decoherence (d=7) grids, avg-decoherence's d=5 rates with the unit rates
written five ways (``1``, ``1.0``, ``2-1``, ...) and with one of them one ulp
above 1, one d=3 rate with a 0.02-wide dip (a non-positive intermediate map
between two nearby grid times), one d=3 rate whose dip lies inside the first
grid step (``deep-dip-d3``: a grid-resolution error, exit 3), one d=3 set whose
eigenvalue ratio overflows and one whose largest ratio is finite but within a
factor of 4 of the double range, two semigroups whose rate integrals leave the
double range, two semigroups with a rate just below zero (inside the inequality
slack), one semigroup whose trajectory.csv holds exact 17-digit ties and values
on both sides of the switch to exponent notation, three d=2 rate sets that fail
to evaluate (ln of a nonpositive value at a grid time, division by zero, and
the literal 1e999) and four that fail to parse (an unexpected character, an
unclosed parenthesis, a wrong argument count and 1000 nested parentheses), each
with seeds 42 and 7, and prints one line per case::

    <case> <sha256 of report.json> <sha256 of trajectory.csv> <sha256 of stdout>

It then runs ``paulidyn mub`` for d in {2, 3, 5, 7, 11, 13, 31} and prints::

    mub-d<d> <sha256 of mub_d<d>.json> <sha256 of mub_d<d>_overlaps.csv> <sha256 of stdout>

and ``paulidyn channel --out`` for one CP and one non-CP channel at d=2 and at
d=3, each given by ``--lambdas`` and by ``--probs``::

    channel-<case> <sha256 of channel_d<d>.json> <sha256 of stdout>

and last ``paulidyn presets list``, the one command that writes no file::

    presets-list <sha256 of stdout>

The printed text is hashed with its ``--out`` directory written as ``<out>``, so
the summary of ``dynamics`` and the margins that ``channel`` prints (not all of
them are in its file) are pinned as well.  A case that exits non-zero prints
``exit=<code> <sha256 of its stderr>`` in place of the hashes, so its error
message is pinned too.
Whether two checkouts write byte-identical artifacts and print the same text is
then one ``diff``::

    PYTHONPATH=src python3 tools/artifact_matrix.py > after.txt
    PYTHONPATH=<other checkout>/src python3 tools/artifact_matrix.py > before.txt
    diff before.txt after.txt

With ``--fields`` it prints what each ``report.json`` decides instead, one
line per verdict and per witness, floats as ``repr``::

    <case> <criterion> <status> <margin> <first_violation_time> <violations> <note>
    <case> <witness> <kind> <s> <t> <magnitude>     (or ``<case> <witness> none``)

so the same ``diff`` shows which decisions moved when the hashes differ.

With ``--witnesses`` it prints one line per witness a ``report.json`` found::

    <case> <witness> <kind> <s> <t> <magnitude> <sha256 of its state or operator JSON>

so "the witness states are unchanged and only magnitudes moved" is one ``diff`` too.
``tests/artifact_fields.txt`` pins this output; ``tests/test_artifact_fields.py``
regenerates and compares it.

The ``paulidyn`` that runs is whichever one ``PYTHONPATH`` selects; its path
goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import paulidyn
from paulidyn.cli import main

SEEDS = (42, 7)
MUB_DIMS = (2, 3, 5, 7, 11, 13, 31)

# (d, flag, values): a CP and a non-CP channel per d and coordinate flag
CHANNELS = (
    (2, "lambdas", "0.5,0.3,0.2"), (2, "lambdas", "0.9,0.9,-0.9"),
    (2, "probs", "0.7,0.1,0.1,0.1"), (2, "probs", "1.2,-0.1,-0.05,-0.05"),
    (3, "lambdas", "0.5,0.2,0.1,0.3"), (3, "lambdas", "0.6,-0.1,0.25,0.05"),
    (3, "probs", "0.2,0.2,0.2,0.2,0.2"), (3, "probs", "0.6,0.3,0.2,-0.05,-0.05"),
)

# (a, b, c, e) per rate of a + b*tanh(c*(t - e)), three rates per d=2 set
TANH_SETS = (
    ((0.5, -1.0, 1.0, 1.0), (0.8, 0.3, 0.5, 2.0), (1.0, 0.2, 1.5, 0.5)),
    ((-0.3, 0.9, 0.7, 2.5), (0.6, -0.4, 1.2, 1.0), (0.4, 0.5, 0.3, 3.0)),
    ((1.1, -0.9, 2.0, 0.2), (-0.5, 0.8, 0.9, 3.5), (0.7, -0.6, 1.8, 1.5)),
    ((0.2, 0.1, 0.4, 0.0), (0.9, -1.0, 1.1, 2.2), (-0.2, 0.6, 0.6, 1.2)),
)

# a legitimate d=3 map whose largest BLP rise with --blp-pairs=20, for seeds 42 and 7,
# is on a random pair
TANH_RANDOM_PAIR_D3 = ((-0.2, -0.2, 1.6, 3.9), (1.1, 0.1, 0.9, 2.7), (1.0, 0.2, 0.6, 0.2),
                       (-0.2, -0.9, 1.9, 3.7))

# a d=5 set with a BLP witness; with --blp-pairs=20 it also has 14 random pairs
TANH_BLP_D5 = ((-0.2682, -0.9702, 1.1009, 2.913), (1.0535, 0.2511, 1.8591, 3.4588),
               (-0.2073, 0.7323, 1.5423, 1.1115), (0.8347, 0.7304, 0.809, 2.1082),
               (-0.4713, 0.1665, 0.7044, 3.0599), (-0.2875, -0.3745, 0.3246, 0.1302))


def tanh_argv(params) -> list:
    """--gamma flags for rates a + b*tanh(c*(t - e))."""
    return [f"--gamma={a!r} + {b!r}*tanh({c!r}*(t - {e!r}))" for (a, b, c, e) in params]


def semigroup_sets(d: int) -> dict:
    """Constant-rate sets with no, one, two and d negative rates."""
    return {
        "pos": [0.3 + 0.2 * k for k in range(d + 1)],
        "neg1": [1.0 + 0.1 * k for k in range(d)] + [-0.3],
        "neg2": [0.5] * (d - 1) + [-0.2, -0.1],
        "negd": [2.0] + [-0.05] * d,
    }


def cases():
    """(name, argv without --seed/--out) for every case of the matrix."""
    yield "eternal-qubit", ["--preset=eternal-qubit"]
    for d in (2, 3, 5, 7, 11, 13):
        for preset in ("eternal-general", "avg-decoherence"):
            yield f"{preset}-d{d}", [f"--preset={preset}", f"--d={d}"]
        if d > 7:
            continue
        for label, values in semigroup_sets(d).items():
            yield (f"semigroup-{label}-d{d}",
                   ["--preset=semigroup", "--c=" + ",".join(repr(c) for c in values)])
    yield "avg-decoherence-d31", ["--preset=avg-decoherence", "--d=31"]
    yield "eternal-general-d31", ["--preset=eternal-general", "--d=31"]
    # large rates: lambda underflows to 0 for t > ~7.5
    yield "semigroup-large-d2-t10", ["--preset=semigroup", "--c=50,50,50", "--t-max=10"]
    for k, params in enumerate(TANH_SETS, 1):
        yield f"tanh{k}-d2", ["--d=2"] + tanh_argv(params)
    yield "tanh-random-pair-d3", ["--d=3"] + tanh_argv(TANH_RANDOM_PAIR_D3)
    yield "tanh-blp-d5", ["--d=5"] + tanh_argv(TANH_BLP_D5)
    # the opt-in count: the d+1 antipodal pairs, read off lambda as by default, then random
    # pairs, whose distances go through eigvalsh
    yield ("tanh-random-pair-d3-blp-pairs20",
           ["--d=3", "--blp-pairs=20"] + tanh_argv(TANH_RANDOM_PAIR_D3))
    yield "tanh-blp-d5-blp-pairs20", ["--d=5", "--blp-pairs=20"] + tanh_argv(TANH_BLP_D5)
    # the opt-in count at d=2 (tanh1 has no back-flow, tanh3 a rise at t=1.375) and d=13
    for k in (1, 3):
        yield f"tanh{k}-d2-blp-pairs20", ["--d=2", "--blp-pairs=20"] + tanh_argv(TANH_SETS[k - 1])
    yield ("eternal-general-d13-blp-pairs20",
           ["--preset=eternal-general", "--d=13", "--blp-pairs=20"])
    # zero budgets: route 1 alone, an unrefined see-saw, no BLP probe
    for d in (3, 5):
        for flag in ("attempts", "refine-iters"):
            yield (f"eternal-general-d{d}-{flag}0",
                   ["--preset=eternal-general", f"--d={d}", f"--{flag}=0"])
    yield "tanh-blp-d5-blp-pairs0", ["--d=5", "--blp-pairs=0"] + tanh_argv(TANH_BLP_D5)
    # lambda_24 alone rises: its back-flow lies on the last of the 24 axes
    yield ("semigroup-axis24-d23",
           ["--preset=semigroup", "--c=" + ",".join(["-1"] + ["0"] * 22 + ["10"]),
            "--t-max=1", "--steps=50"])
    yield "tanh-random-pair-d3-n10000", ["--d=3", "--steps=10000"] + tanh_argv(TANH_RANDOM_PAIR_D3)
    yield ("eternal-general-d3-t10-n10000",
           ["--preset=eternal-general", "--d=3", "--t-max=10", "--steps=10000"])
    # the first 10^4-step case at d >= 7: adjacent pairs meet pairwise-summed CP margins
    yield ("avg-decoherence-d7-t5-n10000",
           ["--preset=avg-decoherence", "--d=7", "--t-max=5", "--steps=10000"])
    # avg-decoherence's rates with its five unit rates spelled five ways: they integrate to
    # the same bits, so the witness search scores one column for the five axes
    companion = "--gamma=-(5-1)*(exp(5*t)-1)/(exp(5*t)+5-1)"
    yield ("equal-sources-d5",
           ["--d=5"] + [f"--gamma={g}" for g in ("1", "1.0", "2-1", "0.5+0.5", "3/3")]
           + [companion])
    # the same with gamma_2 one ulp above 1: its lambda row is a class of its own
    yield "last-bit-apart-d5", ["--d=5", "--gamma=1", "--gamma=1.0000000000000002"] + \
        ["--gamma=1"] * 3 + [companion]
    # not positive between t = 2.05 and 2.075 only
    yield ("short-window-d3",
           ["--d=3"] + ["--gamma=1"] * 3 + ["--gamma=1 - 3*exp(0-((t-2.06)/0.02)^2)"])
    # gamma_4 falls to -29 inside the first grid step, where no grid sample sees it, and
    # lambda_1 rises over that step: a classified grid-resolution error
    yield ("deep-dip-d3",
           ["--d=3"] + ["--gamma=1"] * 3 + ["--gamma=1 - 30*exp(0-((t-0.004)/0.001)^2)"])
    # lambda_1 underflows to 0 and recovers: lambda_1(5)/lambda_1(2.5) exceeds the double range
    yield "overflow-ratio-d3", ["--d=3"] + ["--gamma=200*tanh(3*(2.5-t))"] * 3 + ["--gamma=1"]
    # the largest eigenvalue ratio, 5.47e307, is finite; the axis operator's trace norm is not
    yield ("axis-ratio-near-max-d3",
           ["--d=3"] + ["--gamma=104.1*tanh(3*(2.5-t))"] * 3 + ["--gamma=1"])
    # a Simpson sum of the first rate overflows
    yield "overflow-simpson-d2", ["--preset=semigroup", "--c=1e308,1,1"]
    # every rate integral is finite, their sum G overflows near t = 3
    yield "overflow-total-d2", ["--preset=semigroup", "--c=2e307,2e307,2e307"]
    # a negative rate inside the 1e-12 inequality slack: cp_divisible judges its exact sign
    yield "semigroup-slack-d2", ["--preset=semigroup", "--c=0,0,-9e-13"]
    yield "semigroup-slack-d3", ["--preset=semigroup", "--c=-9e-13,-9e-13,-9e-13,-9e-13"]
    # trajectory.csv holds exact 17-digit ties (gamma_1 = 2^-25 and Gamma_1 at dyadic t) and
    # Gamma_2 = 3e-5 t crosses from exponent into fixed notation at 1e-4
    yield "semigroup-csv-ties-d2", ["--preset=semigroup", "--c=2.9802322387695312e-08,3e-05,0.5"]
    # rates that fail: an evaluation error names the first bad grid time, a parse error
    # the position of the literal
    yield "ln-nonpositive-d2", ["--d=2", "--gamma=ln(2 - t)", "--gamma=1", "--gamma=1"]
    yield "division-by-zero-d2", ["--d=2", "--gamma=1", "--gamma=1/(t - 1)", "--gamma=1"]
    yield "literal-1e999-d2", ["--d=2", "--gamma=1", "--gamma=1", "--gamma=1e999"]
    # parse errors: each message and position is pinned by its stderr (where the nesting
    # case stops depends on the interpreter's stack limit and the caller's depth)
    for label, source in (("bad-character", "1 + $"), ("unclosed-paren", "(1 + t"),
                          ("arity", "pow(2)"), ("nested-1000", "(" * 1000 + "t" + ")" * 1000)):
        yield f"parse-{label}-d2", ["--d=2", f"--gamma={source}", "--gamma=1", "--gamma=1"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_fields(path: Path) -> str:
    """The verdicts and witnesses of a report.json, one line each, floats as repr."""
    report = json.loads(path.read_text())
    lines = [f"{name} {v['status']} {v['margin']!r} {v['first_violation_time']!r} "
             f"{[(x['time'], x['label'], x['margin']) for x in v['violations']]!r} {v['note']!r}"
             for name, v in report["criteria"].items()]
    for name in ("trace_norm_witness", "blp_witness"):
        w = report[name]
        found = f"{w['kind']} {w['s']!r} {w['t']!r} {w['magnitude']!r}" if w["found"] else "none"
        lines.append(f"{name} {found}")
    return "\n".join(lines)


def report_witnesses(path: Path) -> str:
    """One line per found witness of a report.json: kind, s, t, magnitude as repr, and the
    sha256 of its ``state`` or ``operator`` JSON."""
    report = json.loads(path.read_text())
    lines = []
    for name in ("trace_norm_witness", "blp_witness"):
        w = report[name]
        if w["found"]:
            vector = json.dumps(w.get("state", w.get("operator"))).encode()
            lines.append(f"{name} {w['kind']} {w['s']!r} {w['t']!r} {w['magnitude']!r} "
                         f"{hashlib.sha256(vector).hexdigest()}")
    return "\n".join(lines)


def run_case(argv: list, outputs=("report.json", "trajectory.csv"), read=sha256,
             stdout: bool = True) -> str:
    """The ``read`` of each output file, then, with ``stdout``, the sha256 of stdout with
    the output directory written as ``<out>``."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, f"--out={tmp}"] if outputs else argv)
        if code != 0:
            return f"exit={code} {hashlib.sha256(err.getvalue().encode()).hexdigest()}"
        digests = [read(Path(tmp) / name) for name in outputs]
        if stdout:
            text = out.getvalue().replace(tmp, "<out>")
            digests.append(hashlib.sha256(text.encode()).hexdigest())
        return " ".join(digests)


def run_matrix(read=None) -> None:
    """The hash lines, or with ``read`` (a report.json reader) its lines for every case."""
    print(f"paulidyn from {Path(paulidyn.__file__).parent}", file=sys.stderr)
    for name, argv in cases():
        for seed in SEEDS:
            argv_seed = ["dynamics", *argv, f"--seed={seed}"]
            text = run_case(argv_seed, ("report.json",), read, stdout=False) \
                if read else run_case(argv_seed)
            lines = [f"{name}-s{seed} {line}" for line in text.split("\n") if line]
            if lines:
                print("\n".join(lines), flush=True)
    if read:
        return
    for d in MUB_DIMS:
        outputs = (f"mub_d{d}.json", f"mub_d{d}_overlaps.csv")
        print(f"mub-d{d} {run_case(['mub', f'--d={d}'], outputs)}", flush=True)
    for d, flag, values in CHANNELS:
        argv = ["channel", f"--d={d}", f"--{flag}={values}"]
        print(f"channel-d{d}-{flag}-{values} {run_case(argv, (f'channel_d{d}.json',))}",
              flush=True)
    print(f"presets-list {run_case(['presets', 'list'], ())}", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--fields", dest="read", action="store_const", const=report_fields,
                      help="print each report's verdicts and witnesses instead of the hashes")
    mode.add_argument("--witnesses", dest="read", action="store_const", const=report_witnesses,
                      help="print each found witness with the digest of its state or operator")
    run_matrix(parser.parse_args().read)
