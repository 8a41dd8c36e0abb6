"""End-to-end tests of the command line interface."""

from __future__ import annotations

import csv
import errno
import gc
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import OrderedDict
from fractions import Fraction
from math import gcd

import pytest

from slope_atlas import cli, cli_batch, cli_plot
from slope_atlas.rational import slope_terms
from slope_atlas.slopes import (INF, MAX_SLOPE_TOKEN, CircularArc,
                                ExtRational, Region, parse_slope)
from slope_atlas.whitehead import _cell, classify, plot_class
from test_slopes import _sample_points
from test_whitehead import literal_cell


def run_cli(*argv):
    return cli.main(list(argv))


def _child_env(**env):
    """The environment of a child interpreter: this one's, with ``env`` set
    and the package importable."""
    return dict(os.environ, **env,
                PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_json_output(capsys):
    assert run_cli("classify", "1", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["slope"] == ["1", "1"]
    assert doc["lspace"] == "yes" and doc["foliation"] == "no"
    assert doc["left_orderable"] == "no"


def test_classify_negative_fraction_positional(capsys):
    assert run_cli("classify", "-7/2", "inf") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["slope"] == ["-7/2", "inf"]
    assert doc["lspace"] == "yes"
    assert "lens-space-filling" in doc["citations"]


def test_classify_orderable_and_reducible_cases(capsys):
    assert run_cli("classify", "-1", "7/3") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["left_orderable"] == "yes"
    assert run_cli("classify", "0/1", "5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["qhs"] is False


def test_classify_writes_out_file(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    assert run_cli("classify", "1/2", "1/2", "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["euler_zero"] == "yes" and doc["left_orderable"] == "yes"


def test_classify_bad_token_names_it(capsys):
    assert run_cli("classify", "abc", "1") == 2
    err = capsys.readouterr().err
    assert "abc" in err


def test_usage_errors_exit_two(capsys):
    # Each usage error is one "error:" line on stderr and nothing on stdout.
    for argv in ([], ["nonsense"], ["classify", "1", "1", "--bogus", "x"],
                 ["plot", "--bou", "1:2,1:2"], ["plot", "--bounds"],
                 ["monodromy", "1; 2", "--json=x"], ["classify", "1"],
                 ["classify", "1", "1", "1"], ["region", "3"],
                 ["batch", "in.csv"], ["plot"],
                 ["plot", "--bounds", "1:2,1:2", "--format", "png"],
                 ["plot", "--bounds=1:2,1:2", "--format="],
                 ["--", "classify", "1", "1"]):
        assert run_cli(*argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: "), argv
        assert captured.err.count("\n") == 1, argv
        assert captured.err.endswith("\n"), argv
    # A long command, option name or --format value is echoed cut to its
    # first MAX_SLOPE_TOKEN characters.
    long = "x" * 5000
    for argv in ([long], ["--" + long], ["plot", "--" + long],
                 ["plot", "--" + long + "=1"],
                 ["plot", "--bounds", "1:2,1:2", "--format", long]):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert repr(argv[-1][:MAX_SLOPE_TOKEN] + "...") in captured.err
        assert len(captured.err) < 2 * MAX_SLOPE_TOKEN


def test_argument_grammar_accepted_forms(capsys, tmp_path):
    def out(*argv):
        assert run_cli(*argv) == 0
        return capsys.readouterr().out

    assert json.loads(out("classify", "-3", "5/6"))["slope"] == ["-3", "5/6"]
    assert out("classify", "-3", "5/6") == out("classify", "--", "-3", "5/6")
    # A repeated option keeps its last value.
    tsv = out("plot", "--bounds=-2:2,1:3")
    assert tsv == out("plot", "--bounds", "9:1,1:1", "--bounds=-2:2,1:3")
    assert tsv == out("plot", "--format", "svg", "--bounds=-2:2,1:3",
                      "--format=tsv")
    # Options go on either side of the positionals.
    doc = out("monodromy", "--json", "1; 1, -1")
    assert doc == out("monodromy", "1; 1, -1", "--json", "--json")
    # "--" ends the options, so a later "--json" is a positional.
    assert run_cli("monodromy", "--", "1; 2", "--json") == 2
    capsys.readouterr()
    verdict = tmp_path / "v.json"
    assert out("classify", f"--out={verdict}", "1", "--", "-1") == ""
    assert json.loads(verdict.read_text())["slope"] == ["1", "-1"]


def test_help_names_every_command_option_and_positional(capsys):
    def help_text(*argv):
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    top = help_text("-h")
    assert top == help_text("--help")
    # Help after other arguments still wins over running the command.
    assert help_text("plot", "--bounds", "1:2,1:2", "-h") == help_text(
        "plot", "--help")
    for name, (text, positionals, options) in cli.COMMANDS.items():
        assert text in top
        for out in (top, help_text(name, "-h")):
            assert f"slope-atlas {name}" in out
            for p in positionals:
                assert p.upper() in out
            for opt in options:
                assert f"--{opt}" in out


def test_main_calls_the_command_function_bound_when_it_runs(
        capsys, monkeypatch):
    seen = []

    def fake(args):
        seen.append(args)
        return 7

    monkeypatch.setattr(cli, "cmd_classify", fake)
    assert run_cli("classify", "-1", "2/3") == 7
    assert capsys.readouterr().out == ""
    [args] = seen
    assert (args.s1, args.s2, args.out) == ("-1", "2/3", None)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "slope_atlas.cli", "classify", "1", "1"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lspace"] == "yes"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered",
                                                       "unbuffered"])
def test_closed_stdout_exits_1_without_a_diagnostic(unbuffered):
    # As `slope-atlas plot ... | head -n 1`: the reader takes the header and
    # closes the pipe while the run still has about 1.5 MB to write.  That
    # is not bad input, so the run exits 1, not 2, and says nothing.
    proc = subprocess.Popen(
        [sys.executable, "-m", "slope_atlas.cli", "plot",
         "--bounds", "-16:16,1:16"], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=_child_env(PYTHONUNBUFFERED=unbuffered))
    with proc:
        assert proc.stdout.readline() == b"s1\ts2\tclass\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("argv", [
    ["classify", "1", "1"], ["plot", "--bounds", "1:2,1:2"],
    ["plot", "--bounds", "1:2,1:2", "--format", "svg"], ["region"],
    ["monodromy", "1; 1, -1", "--json"], ["batch"], ["--help"]],
    ids=["classify", "plot-tsv", "plot-svg", "region", "monodromy", "batch",
         "help"])
def test_stdout_closed_at_start_exits_1_without_a_diagnostic(
        tmp_path, capsys, argv):
    # As `slope-atlas classify 1 1 >&-`: the interpreter starts with no
    # stdout, as if its reader had closed it before the first byte.  So the
    # run exits 1 and says nothing, and with --out it writes its file.
    # batch needs --out and writes its summary to stdout, so it writes its
    # whole file and still exits 1.
    closed = ["sh", "-c", 'exec "$@" >&-', "sh",
              sys.executable, "-m", "slope_atlas.cli"]
    batch = argv == ["batch"]
    if batch:
        argv = ["batch", _write_csv(tmp_path / "in.csv",
                                    "id,s1,s2\nr0,1/2,3\nr1,inf,-2\n")]
    else:
        proc = subprocess.run(closed + argv, capture_output=True,
                              env=_child_env())
        assert (proc.returncode, proc.stderr) == (1, b"")
    if argv == ["--help"]:
        return
    out = tmp_path / "out.txt"
    proc = subprocess.run(closed + argv + ["--out", str(out)],
                          capture_output=True, env=_child_env())
    assert (proc.returncode, proc.stderr) == (1 if batch else 0, b"")
    if batch:
        want = tmp_path / "want.csv"
        assert run_cli(*argv, "--out", str(want)) == 0
        assert capsys.readouterr().out.startswith("rows: 2\n")
        assert out.read_text() == want.read_text()
        return
    assert run_cli(*argv) == 0
    assert out.read_text() == capsys.readouterr().out


def test_batch_counts_failed_rows_with_stdout_closed_at_start(tmp_path):
    # As `slope-atlas batch bad.csv --out o.csv >&-`: the summary cannot be
    # written, so the run exits 1, but the failure count still reaches
    # stderr after the row's diagnostic and the out file is complete.
    src = _write_csv(tmp_path / "in.csv", "id,s1,s2\nr0,1/2,3\nr1,x,-2\n")
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m",
         "slope_atlas.cli", "batch", src, "--out", str(out)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"{src}:3: invalid slope token 'x'", "failed rows: 1"]
    assert out.read_text() == (
        "id,s1,s2,qhs,h1,h2,lspace,foliation,euler_zero,left_orderable\n"
        "r0,1/2,3,true,1,3,no,yes,yes,yes\n")


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

def test_monodromy_text_report(capsys):
    assert run_cli("monodromy", "1; 5, 10, -5") == 0
    out = capsys.readouterr().out
    assert "monodromy: 1; 5, 10, -5" in out
    assert "labels: p+ n n" in out
    assert "I: (inf,1) x (inf,0) x (0,inf)" in out
    assert "J: (inf,1) x (0,inf) x (inf,0)" in out
    assert "orientation 1: -> -> <-  (2:n_in 3:n_out)" in out
    assert "orientation 2: <- <- ->  (2:n_out 3:n_in)" in out
    assert "foliation region:" in out
    assert "(inf,1) x (inf,1) x (inf,1)" in out


def test_monodromy_json_report(capsys):
    assert run_cli("monodromy", "1; 1, -1", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["labels"] == ["n", "n"]
    assert doc["intervals"]["I"] == ["(inf,0)", "(0,inf)"]
    assert doc["intervals"]["J"] == ["(0,inf)", "(inf,0)"]
    assert len(doc["orientations"]) == 2
    assert doc["orientations"][0]["n_types"] == {"1": "n_in", "2": "n_out"}
    assert len(doc["foliation_region"]["boxes"]) == 3


def test_monodromy_leading_dash_word(capsys):
    assert run_cli("monodromy", "--", "-1; 1, 1, 1") == 0
    out = capsys.readouterr().out
    assert "labels: p+ p+ p+" in out
    assert "(-1,inf) x (-1,inf) x (-1,inf)" in out
    assert "(inf,1) x (inf,1) x (inf,1)" in out
    assert run_cli("monodromy", "-1; 1, 1, 1") == 0
    assert capsys.readouterr().out == out


def test_monodromy_rejects_zero_exponent(capsys):
    assert run_cli("monodromy", "1; 0, 2") == 2
    assert "error" in capsys.readouterr().err


def test_monodromy_rejects_non_ascii_and_long_exponents(capsys):
    assert run_cli("monodromy", "1; \u0663, -2") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exponent ' \u0663'" in captured.err
    assert run_cli("monodromy", "1; " + "7" * 5000) == 2
    assert len(capsys.readouterr().err) < 2 * MAX_SLOPE_TOKEN


def test_monodromy_time_linear_in_k(capsys):
    # k has no cap: the report costs time linear in k, so doubling k must
    # not triple the best of five runs.  The two sizes take turns, so a
    # slow spell on the machine slows both; the clock is this process's CPU
    # time, so CPU given to other processes is not charged to the word; and
    # as in timeit the collector is off while a run is timed, so a full
    # collection of the test process's heap is not charged either.
    words = {k: "1; " + ", ".join(["3", "-2", "5", "-1"] * (k // 4))
             for k in (4000, 8000)}
    times = {k: [] for k in words}
    for _ in range(5):
        for k, word in words.items():
            gc.disable()
            try:
                start = time.process_time()
                assert run_cli("monodromy", word) == 0
                times[k].append(time.process_time() - start)
            finally:
                gc.enable()
            capsys.readouterr()
    assert min(times[8000]) / min(times[4000]) < 3, times


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------

def test_region_text(capsys):
    assert run_cli("region") == 0
    out = capsys.readouterr().out
    assert "L-space region (b1=0, b2=0):" in out
    assert "[1,inf] x [1,inf]" in out
    assert "{inf} x Q*" in out and "Q* x {inf}" in out
    assert "taut-foliation region:" in out
    assert "(0,inf) x (-1,1)" in out


def test_region_json_with_framings(capsys):
    assert run_cli("region", "--b1", "1", "--b2", "2", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    box = doc["lspace_region"]["boxes"][0]
    assert box[0]["start"] == "3" and box[1]["start"] == "5"
    assert doc["lspace_region"]["lines"] == [0, 1]
    assert len(doc["foliation_region"]["boxes"]) == 5


# The full reports of ``monodromy "1; 5, 10, -5"`` and of ``region``.  The
# JSON pins are compact; the CLI prints them with ``indent=2``.
_MONODROMY_TEXT = """\
monodromy: 1; 5, 10, -5
labels: p+ n n
I: (inf,1) x (inf,0) x (0,inf)
J: (inf,1) x (0,inf) x (inf,0)
orientation 1: -> -> <-  (2:n_in 3:n_out)
orientation 2: <- <- ->  (2:n_out 3:n_in)
foliation region:
  (inf,1) x (inf,1) x (inf,1)
  (inf,1) x (inf,0) x (0,inf)
  (inf,1) x (0,inf) x (inf,0)
"""

_MONODROMY_JSON = (
    '{"monodromy":"1; 5, 10, -5","labels":["p+","n","n"],'
    '"intervals":{"I":["(inf,1)","(inf,0)","(0,inf)"],'
    '"J":["(inf,1)","(0,inf)","(inf,0)"]},'
    '"orientations":[{"directions":[false,false,true],"n_types":{"2":"n_in",'
    '"3":"n_out"}},{"directions":[true,true,false],"n_types":{"2":"n_out",'
    '"3":"n_in"}}],"foliation_region":{"dim":3,"boxes":[[{"start":"inf",'
    '"end":"1","start_closed":false,"end_closed":false},{"start":"inf",'
    '"end":"1","start_closed":false,"end_closed":false},{"start":"inf",'
    '"end":"1","start_closed":false,"end_closed":false}],[{"start":"inf",'
    '"end":"1","start_closed":false,"end_closed":false},{"start":"inf",'
    '"end":"0","start_closed":false,"end_closed":false},{"start":"0",'
    '"end":"inf","start_closed":false,"end_closed":false}],[{"start":"inf",'
    '"end":"1","start_closed":false,"end_closed":false},{"start":"0",'
    '"end":"inf","start_closed":false,"end_closed":false},{"start":"inf",'
    '"end":"0","start_closed":false,"end_closed":false}]],"lines":[]}}')

_REGION_TEXT = """\
L-space region (b1=0, b2=0):
  [1,inf] x [1,inf]
  {inf} x Q*
  Q* x {inf}
taut-foliation region:
  (inf,1) x (inf,1)
  (inf,0) x (0,inf)
  (0,inf) x (inf,0)
  (0,inf) x (-1,1)
  (-1,1) x (0,inf)
"""

_REGION_JSON = (
    '{"lspace_region":{"dim":2,"boxes":[[{"start":"1","end":"inf",'
    '"start_closed":true,"end_closed":true},{"start":"1","end":"inf",'
    '"start_closed":true,"end_closed":true}]],"lines":[0,1]},'
    '"foliation_region":{"dim":2,"boxes":[[{"start":"inf","end":"1",'
    '"start_closed":false,"end_closed":false},'
    '{"start":"inf","end":"1","start_closed":false,"end_closed":false}],'
    '[{"start":"inf","end":"0","start_closed":false,"end_closed":false},'
    '{"start":"0","end":"inf","start_closed":false,"end_closed":false}],'
    '[{"start":"0","end":"inf","start_closed":false,"end_closed":false},'
    '{"start":"inf","end":"0","start_closed":false,"end_closed":false}],'
    '[{"start":"0","end":"inf","start_closed":false,"end_closed":false},'
    '{"start":"-1","end":"1","start_closed":false,"end_closed":false}],'
    '[{"start":"-1","end":"1","start_closed":false,"end_closed":false},'
    '{"start":"0","end":"inf","start_closed":false,"end_closed":false}]],'
    '"lines":[]}}')


@pytest.mark.parametrize("argv, pinned", [
    (("monodromy", "1; 5, 10, -5"), _MONODROMY_TEXT),
    (("monodromy", "1; 5, 10, -5", "--json"),
     json.dumps(json.loads(_MONODROMY_JSON), indent=2) + "\n"),
    (("region",), _REGION_TEXT),
    (("region", "--json"),
     json.dumps(json.loads(_REGION_JSON), indent=2) + "\n")],
    ids=["monodromy-text", "monodromy-json", "region-text", "region-json"])
def test_monodromy_and_region_output_pinned(capsys, argv, pinned):
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == pinned


# sha256 of the monodromy report, text then --json, of every word
# "a0; s1, ..., sk" with k <= 6, each s_i = +-1 and a0 in {-1, 0, 1}, in
# itertools.product order: 756 runs.  Pinned from the output of commit
# c06d709, before the boundary data were read from one template pass.
_MONODROMY_SWEEP_SHA256 = (
    "2d4b6346bcd3d3ad588e52504e8bff0bd7c3d9298d65f5aeddddfb25cc369332")


def test_monodromy_output_pinned_on_every_small_sign_vector(capsys):
    digest, runs = hashlib.sha256(), 0
    for k in range(1, 7):
        for signs in itertools.product((-1, 1), repeat=k):
            for a0 in (-1, 0, 1):
                word = f"{a0}; " + ", ".join(map(str, signs))
                for extra in ((), ("--json",)):
                    assert run_cli("monodromy", word, *extra) == 0
                    digest.update(capsys.readouterr().out.encode())
                    runs += 1
    assert runs == 756
    assert digest.hexdigest() == _MONODROMY_SWEEP_SHA256


@pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
def test_monodromy_builds_the_orientations_once(capsys, monkeypatch, extra):
    # labels, intervals and foliation_region read the boundary templates
    # without building the orientations, so only cmd_monodromy's own call
    # is left.
    from slope_atlas import cli_regions, monodromy
    original, calls = monodromy.coherent_orientations, []

    def counted(m):
        calls.append(m)
        return original(m)

    for module in (monodromy, cli_regions):
        monkeypatch.setattr(module, "coherent_orientations", counted)
    assert run_cli("monodromy", "1; 5, 10, -5", *extra) == 0
    assert capsys.readouterr().out
    assert len(calls) == 1


def _region_from_json(doc):
    return Region(doc["dim"], [
        [CircularArc(parse_slope(a["start"]), parse_slope(a["end"]),
                     a["start_closed"], a["end_closed"]) for a in box]
        for box in doc["boxes"]], doc["lines"])


@pytest.mark.parametrize("b1, b2", [(0, 0), (0, 1), (2, 0), (1, 2), (3, 3)])
def test_region_labels_the_foliation_side_as_the_whitehead_links(
        capsys, b1, b2):
    # The foliation region does not depend on the framings: it is the
    # Whitehead link's, and says so whenever the framings are not zero.
    assert run_cli("region", "--b1", str(b1), "--b2", str(b2)) == 0
    text = capsys.readouterr().out
    assert run_cli("region", "--b1", str(b1), "--b2", str(b2), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["foliation_region"] == json.loads(_REGION_JSON)[
        "foliation_region"]
    if b1 or b2:
        assert ("taut-foliation region (Whitehead link, b1=0, b2=0):"
                in text.splitlines())
        assert doc["foliation_link"] == "whitehead"
    else:
        assert text == _REGION_TEXT
        assert "foliation_link" not in doc


def test_region_printed_regions_are_disjoint_for_every_framing(capsys):
    # Larger framings only shrink the L-space box, so the printed L-space
    # region never meets the printed foliation region.  Every arc endpoint
    # of both regions, 0 and infinity are cuts of the samples, so both
    # memberships are constant on each product of two pieces of the cut,
    # and the sample pairs decide every multislope.
    for b1 in range(6):
        for b2 in range(6):
            assert run_cli("region", "--b1", str(b1), "--b2", str(b2),
                           "--json") == 0
            doc = json.loads(capsys.readouterr().out)
            lspace = _region_from_json(doc["lspace_region"])
            foliation = _region_from_json(doc["foliation_region"])
            assert lspace.contains((ExtRational(2 * b1 + 1),
                                    ExtRational(2 * b2 + 1)))
            samples = _sample_points([a for r in (lspace, foliation)
                                      for box in r.boxes for a in box])
            for m in itertools.product(samples, repeat=2):
                assert not (lspace.contains(m) and foliation.contains(m)), (
                    b1, b2, m)


def test_region_rejects_negative_framing(capsys):
    assert run_cli("region", "--b1", "-1") == 2
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--b1", "1_0"), ("--b2", "\u0661"), ("--b1", "+1"), ("--b2", "x"),
    pytest.param("--b1", "9" * 5000, id="--b1-5000-digits")])
def test_region_rejects_bad_framing_token(capsys, option, value):
    assert run_cli("region", option, value) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in captured.err
    assert value[:MAX_SLOPE_TOKEN] in captured.err
    assert len(captured.err) < 2 * MAX_SLOPE_TOKEN


def test_region_framing_keeps_integer_spelling(capsys):
    assert run_cli("region", "--b1", "007") == 0
    assert "L-space region (b1=7, b2=0):" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def _write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_batch_frozen_example(tmp_path, capsys):
    src = _write_csv(tmp_path / "in.csv",
                     "id,s1,s2\n"
                     "a,1,1\n"
                     "b,-1,7/3\n"
                     "c,2,3/2\n"
                     "d,1/2,1/2\n")
    out = tmp_path / "out.csv"
    assert run_cli("batch", src, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("id,s1,s2,qhs,h1,h2,lspace,foliation,"
                        "euler_zero,left_orderable")
    assert lines[1] == "a,1,1,true,1,1,yes,no,na,no"
    assert lines[2] == "b,-1,7/3,true,1,7,no,yes,no,yes"
    assert lines[3] == "c,2,3/2,true,2,3,yes,no,na,no"
    assert lines[4] == "d,1/2,1/2,true,1,1,no,yes,yes,yes"
    summary = capsys.readouterr().out
    assert "rows: 4" in summary
    assert "lspace: 2" in summary and "foliation: 2" in summary
    assert "non-qhs: 0" in summary
    assert "left-orderable yes: 2" in summary
    assert "left-orderable no: 2" in summary
    assert "left-orderable unknown: 0" in summary


def test_batch_with_labels(tmp_path, capsys):
    src = _write_csv(tmp_path / "in.csv",
                     "id,s1,s2,label\n"
                     "a,1,1,no\n"
                     "b,-1,7/3,yes\n"
                     "c,3/2,7/5,no\n")
    out = tmp_path / "out.csv"
    assert run_cli("batch", src, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith("left_orderable,label,agrees")
    assert lines[1].endswith("no,no,true")
    assert lines[3].endswith("unknown,no,false")
    assert "label agreement: 2/3" in capsys.readouterr().out


def test_batch_bad_rows_reported_with_line_numbers(tmp_path, capsys):
    src = _write_csv(tmp_path / "in.csv",
                     "id,s1,s2\n"
                     "a,1,1\n"
                     "b,xx,2\n"
                     "c,1,2,3\n"
                     "d,inf,5\n")
    out = tmp_path / "out.csv"
    assert run_cli("batch", src, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert ":3:" in err and ":4:" in err
    rows = out.read_text().splitlines()
    assert len(rows) == 3          # header plus the two good rows
    assert rows[1].startswith("a,") and rows[2].startswith("d,")


def test_batch_line_numbers_count_quoted_newlines(tmp_path, capsys):
    # The first record spans lines 2-3, so the bad rows sit on physical
    # lines 4 and 6 (line 5 is blank).
    src = _write_csv(tmp_path / "in.csv",
                     'id,s1,s2\n"a\nb",1,2\nr2,x,3\n\nr3,1\n')
    assert run_cli("batch", src, "--out", str(tmp_path / "out.csv")) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"{src}:4: invalid slope token 'x'",
                   f"{src}:6: expected 3 fields, got 2",
                   "failed rows: 2"]


def test_batch_header_only_file_counts_zero(tmp_path, capsys):
    src = _write_csv(tmp_path / "none.csv", "id,s1,s2\n")
    out = tmp_path / "o.csv"
    assert run_cli("batch", src, "--out", str(out)) == 0
    assert "rows: 0" in capsys.readouterr().out
    assert out.read_text().splitlines() == [
        "id,s1,s2,qhs,h1,h2,lspace,foliation,euler_zero,left_orderable"]


def test_batch_bad_header_and_empty_file(tmp_path, capsys):
    bad = _write_csv(tmp_path / "bad.csv", "ident,s1,s2\na,1,1\n")
    assert run_cli("batch", bad, "--out", str(tmp_path / "o.csv")) == 2
    assert "expected" in capsys.readouterr().err
    empty = _write_csv(tmp_path / "empty.csv", "")
    assert run_cli("batch", empty, "--out", str(tmp_path / "o.csv")) == 2
    assert "empty" in capsys.readouterr().err
    wide = _write_csv(tmp_path / "wide.csv", ",".join(["id"] * 20000) + "\n")
    assert run_cli("batch", wide, "--out", str(tmp_path / "o.csv")) == 2
    assert len(capsys.readouterr().err) < 3 * MAX_SLOPE_TOKEN


def test_batch_out_is_atomic(tmp_path, capsys, monkeypatch):
    src = _write_csv(tmp_path / "in.csv",
                     "id,s1,s2\na,1,1\nb,2,2\nc,1/2,1/2\n")
    out = tmp_path / "out.csv"
    out.write_bytes(b"old contents\n")
    decide = cli_batch._decide

    def failing_decide(f1, f2):
        # The rules run once per new pair of slope cells: rows 1 and 2 share
        # (positive-integer, positive-integer), so the fault fires on the
        # (euler, euler) pair that row 3 brings, after two rows are written.
        if (f1, f2) == ("euler", "euler"):
            raise ValueError("rules disagree")
        return decide(f1, f2)

    monkeypatch.setattr(cli_batch, "_decide", failing_decide)
    assert run_cli("batch", src, "--out", str(out)) == 2
    assert "rules disagree" in capsys.readouterr().err
    assert out.read_bytes() == b"old contents\n"
    assert sorted(os.listdir(tmp_path)) == ["in.csv", "out.csv"]

    monkeypatch.setattr(cli_batch, "_decide", decide)
    old_umask = os.umask(0o027)
    try:
        fresh = tmp_path / "fresh.csv"
        assert run_cli("batch", src, "--out", str(fresh)) == 0
        assert run_cli("classify", "1", "1", "--out",
                       str(tmp_path / "fresh.json")) == 0
    finally:
        os.umask(old_umask)
    capsys.readouterr()
    # The mode open(path, "w") gives: 0o666 less the umask for a new file,
    # the old mode for an existing one.
    assert fresh.stat().st_mode & 0o777 == 0o640
    assert (tmp_path / "fresh.json").stat().st_mode & 0o777 == 0o640
    out.chmod(0o600)
    assert run_cli("batch", src, "--out", str(out)) == 0
    capsys.readouterr()
    assert out.stat().st_mode & 0o777 == 0o600
    assert out.read_text().count("\n") == 4
    assert sorted(os.listdir(tmp_path)) == [
        "fresh.csv", "fresh.json", "in.csv", "out.csv"]

    # A target open(path, "w") refuses must not be replaced behind its back.
    out.chmod(0o444)
    if os.geteuid() == 0:
        # The superuser may write any file; refuse as for any other user.
        real_open = os.open

        def guarded_open(path, flags, *args, **kwargs):
            if os.fspath(path) == str(out) and flags & os.O_WRONLY:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                      path)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", guarded_open)
    before = out.read_bytes()
    assert run_cli("batch", src, "--out", str(out)) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert out.stat().st_mode & 0o777 == 0o444
    assert sorted(os.listdir(tmp_path)) == [
        "fresh.csv", "fresh.json", "in.csv", "out.csv"]


def _run_child(*argv, **env):
    """Exit code, stdout and stderr bytes of a fresh interpreter that runs
    ``python ARGV`` with the package importable and ``env`` set."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          env=_child_env(**env))
    return proc.returncode, proc.stdout, proc.stderr


def test_batch_out_to_piped_stdout(tmp_path):
    # /dev/stdout on a pipe is written in place, not replaced.
    src = _write_csv(tmp_path / "in.csv", "id,s1,s2\na,1,1\n")
    code, out, err = _run_child("-m", "slope_atlas.cli", "batch", src,
                                "--out", "/dev/stdout")
    assert code == 0, err
    assert out.startswith(
        b"id,s1,s2,qhs,h1,h2,lspace,foliation,euler_zero,left_orderable\n"
        b"a,1,1,")
    assert b"rows: 1\n" in out
    assert sorted(os.listdir(tmp_path)) == ["in.csv"]


# An ASCII locale with neither the UTF-8 mode nor locale coercion, in which
# open() with no encoding reads and writes ASCII.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_batch_files_are_utf8_in_an_ascii_locale(tmp_path):
    code, out, _ = _run_child(
        "-c", "import locale; print(locale.getpreferredencoding(False))",
        **ASCII_LOCALE)
    assert code == 0 and b"utf" not in out.lower()
    src = tmp_path / "in.csv"
    src.write_bytes("id,s1,s2,label\nré,1/2,1/2,über\n".encode())
    dst = tmp_path / "out.csv"
    code, _, err = _run_child("-m", "slope_atlas.cli", "batch", str(src),
                              "--out", str(dst), **ASCII_LOCALE)
    assert code == 0, err
    assert dst.read_bytes() == (
        "id,s1,s2,qhs,h1,h2,lspace,foliation,euler_zero,left_orderable,"
        "label,agrees\nré,1/2,1/2,true,1,1,no,yes,yes,yes,über,false\n"
    ).encode()

    # A file that is not UTF-8 is bad input: one error line, no output.
    latin = tmp_path / "latin.csv"
    latin.write_bytes("id,s1,s2\nré,1,1\n".encode("latin-1"))
    code, out, err = _run_child("-m", "slope_atlas.cli", "batch", str(latin),
                                "--out", str(tmp_path / "latin-out.csv"),
                                **ASCII_LOCALE)
    assert code == 2 and out == b""
    assert err.startswith(b"error: ") and err.count(b"\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["in.csv", "latin.csv", "out.csv"]


def test_batch_accepts_a_byte_order_mark(tmp_path, capsys):
    # Spreadsheet "CSV UTF-8" exports start with a BOM.
    text = "id,s1,s2,label\nré,1,1,no\nb,-3,5/6,yes\n"
    outs = []
    for name, data in (("plain", text.encode()),
                       ("bom", b"\xef\xbb\xbf" + text.encode())):
        src = tmp_path / f"{name}.csv"
        src.write_bytes(data)
        dst = tmp_path / f"{name}-out.csv"
        assert run_cli("batch", str(src), "--out", str(dst)) == 0
        outs.append((dst.read_bytes(), capsys.readouterr()))
    assert outs[0] == outs[1]
    assert outs[0][0].startswith(b"id,s1,s2,qhs,")


def test_cli_files_name_their_encoding(tmp_path):
    # Under -X warn_default_encoding, an open() with no encoding warns, and
    # -W error turns the warning into a traceback and exit 1.
    src = _write_csv(tmp_path / "in.csv", "id,s1,s2\na,1,1\nb,1/2,inf\n")
    for argv in (["classify", "1", "1"], ["plot", "--bounds", "1:2,1:2"],
                 ["region"], ["batch", src]):
        code, _, err = _run_child(
            "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
            "-m", "slope_atlas.cli", *argv, "--out", str(tmp_path / "out"))
        assert code == 0, err


def test_batch_csv_error_exits_2(tmp_path, capsys):
    # A field over the csv module's size limit is bad input, not a crash.
    src = _write_csv(tmp_path / "in.csv",
                     "id,s1,s2\na,1,1\nb,1," + "9" * 200_000 + "\n")
    out = tmp_path / "out.csv"
    assert run_cli("batch", src, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "field larger than field limit" in err
    # It names the file and the line its record starts on, as a row
    # diagnostic does.
    assert "in.csv:3: " in err
    assert sorted(os.listdir(tmp_path)) == ["in.csv"]


def _peak_mib(*argv):
    """Exit code and peak RSS in MiB of a fresh interpreter running the CLI
    on ``argv``.  On Linux the peak is VmHWM: ru_maxrss would not do there,
    since a child started by fork or vfork reports the parent's peak when
    that is the larger, as this test process's usually is."""
    script = (
        "import resource, sys\n"
        "from slope_atlas import cli\n"
        "rc = cli.main(sys.argv[1:])\n"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        peak = int(fh.read().split('VmHWM:')[1].split()[0])\n"
        "except OSError:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    peak //= 1024 if sys.platform == 'darwin' else 1\n"
        "print(rc, peak)\n")
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          capture_output=True, text=True, env=_child_env(),
                          check=True)
    rc, peak_kib = proc.stdout.split()[-2:]
    return rc, int(peak_kib) / 1024


def test_batch_memory_flat_in_row_count(tmp_path):
    # Peak RSS of a fresh interpreter running batch must not grow with the
    # row count: rows are streamed, not collected.  Each id is about 1 KiB,
    # so keeping the 18,000 extra rows would add about 18 MiB.
    peaks = {}
    pad = "x" * 1024
    for n in (2_000, 20_000):
        src = tmp_path / f"in{n}.csv"
        with open(src, "w") as fh:
            fh.write("id,s1,s2\n")
            for i in range(n):
                fh.write(f"r{i}{pad},{i % 41 - 20}/{i % 13 + 1},"
                         f"{i % 37 - 18}/{i % 11 + 1}\n")
        rc, peaks[n] = _peak_mib("batch", src, "--out",
                                 tmp_path / "o.csv")
        assert rc == "0"
    assert peaks[20_000] - peaks[2_000] < 5, peaks


def test_batch_memory_flat_in_distinct_and_padded_tokens(tmp_path):
    # Every token below is new.  The token cache is keyed on the stripped
    # token and holds at most 4,096 entries, so neither 8 KiB of padding
    # per row nor 80,000 distinct tokens make peak RSS grow.
    pad = " " * 4096

    def write(name, n, padded):
        src = tmp_path / name
        with open(src, "w") as fh:
            fh.write("id,s1,s2\n")
            for i in range(n):
                s1 = f"{pad}{i + 1}/{i + 2}{pad}" if padded else f"{i}/7"
                fh.write(f"r{i},{s1},-{i + 3}/{2 * i + 1}\n")
        return src

    runs = {"small": write("small.csv", 200, True),
            "padded": write("padded.csv", 2_000, True),
            "distinct": write("distinct.csv", 40_000, False)}
    peaks = {}
    for name, src in runs.items():
        rc, peaks[name] = _peak_mib("batch", src, "--out",
                                    tmp_path / "o.csv")
        assert rc == "0"
    assert peaks["padded"] - peaks["small"] < 5, peaks
    assert peaks["distinct"] - peaks["small"] < 5, peaks


def test_batch_round_trip_consistency(tmp_path, capsys):
    slopes = cli_plot.grid_slopes((1, 3, -2, 2))
    rows = ["id,s1,s2"]
    idx = 0
    for s1 in slopes:
        for s2 in slopes:
            rows.append(f"r{idx},{s1},{s2}")
            idx += 1
    src = _write_csv(tmp_path / "in.csv", "\n".join(rows) + "\n")
    out = tmp_path / "out.csv"
    assert run_cli("batch", src, "--out", str(out)) == 0
    capsys.readouterr()
    for line in out.read_text().splitlines()[1:]:
        parts = line.split(",")
        v = classify(parse_slope(parts[1]), parse_slope(parts[2]))
        assert parts[3] == ("true" if v.is_qhs else "false")
        assert parts[4:10] == [str(v.homology[0]), str(v.homology[1]),
                               v.lspace.value, v.taut_foliation.value,
                               v.euler_vanishing.value,
                               v.left_orderable.value]


# One slope per fact value, plus 3/5 for the one value the others miss.
FACT_REPRESENTATIVES = ("0", "inf", "1", "-3", "1/2", "5/6", "3/2", "7/5",
                        "3/5")
# Spellings that parse to slopes of those facts but are not canonical.
ODD_SPELLINGS = ("0/-7", "-6/-4", "2/-1", "-4/0", "1000001/1000000",
                 "1000000/1000001", "-1000000/2000001", "999999/-1000000")


# Malformed slope fields, each with the message that reading it raises.
MALFORMED_SLOPES = {
    "0/0": "invalid slope token '0/0' (0/0 is not a slope)",
    "-0/-0": "invalid slope token '-0/-0' (0/0 is not a slope)",
    "+3": "invalid slope token '+3'",
    "1_0": "invalid slope token '1_0'",
    "1" * (MAX_SLOPE_TOKEN + 1):
        "invalid slope token '" + "1" * MAX_SLOPE_TOKEN + "...'",
    "\uff11": "invalid slope token '\uff11'",
    "1/0/2": "invalid slope token '1/0/2'",
    "1.5": "invalid slope token '1.5'",
    "x": "invalid slope token 'x'",
    "": "invalid slope token ''",
    # A padded token is named without its padding.
    " 1.5 ": "invalid slope token '1.5'",
    " 0/0 ": "invalid slope token '0/0' (0/0 is not a slope)",
    "\t+3  ": "invalid slope token '+3'",
}


def test_token_entry_matches_the_slope_built_from_ints():
    # Every p/q in lowest terms with |p| <= 60 and 0 <= q <= 60, in its
    # four sign spellings and, when q = 1, as an integer, with the odd
    # spellings, -0, leading zeros, padding and inf: each field reads to
    # the entry of the ExtRational built from the ints int() reads in it,
    # with the cell its four facts name.
    tokens = ["inf", "-0", "007/010", "-007", "00/-07", "  5/6  ", " -7 ",
              *ODD_SPELLINGS]
    for a in range(61):
        for b in range(61):
            if gcd(a, b) == 1:
                tokens += [f"{sa}{a}/{sb}{b}" for sa in ("", "-")
                           for sb in ("", "-")]
                tokens += [f"{a}", f"-{a}"] * (b == 1)
    assert len(tokens) == 15 + 4 * 2205 + 2 * 61   # 2,205 pairs p/q
    for tok in tokens:
        num, _, den = tok.strip().partition("/")
        s = INF if num == "inf" else ExtRational(int(num), int(den or 1))
        assert parse_slope(tok) == s, tok
        assert cli_batch._token_cell(tok) == (
            str(s), str(abs(s.num)), literal_cell(s.num, s.den)), tok
        if s.den:
            assert str(s) == str(Fraction(s.num, s.den))
    for bad, msg in MALFORMED_SLOPES.items():
        for read in (cli_batch._token_cell, parse_slope):
            with pytest.raises(ValueError) as err:
                read(bad)
            assert str(err.value) == msg


def _pairwise_batch(path):
    """Output text and records, stdout lines and stderr lines of `batch` on
    the CSV at ``path``, labelled or not: each row is read and written by
    the csv module and rendered from its own `classify` verdict, and each
    bad row is reported with the line its record starts on."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    classes = dict.fromkeys(["lspace", "foliation", "non-qhs"], 0)
    orderable = dict.fromkeys(["yes", "no", "unknown", "na"], 0)
    agree = 0
    errors = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        records = [["id", "s1", "s2", "qhs", "h1", "h2", "lspace",
                    "foliation", "euler_zero", "left_orderable"]
                   + ["label", "agrees"] * (width == 4)]
        end = reader.line_num
        for fields in reader:
            lineno, end = end + 1, reader.line_num
            if not fields:
                continue
            try:
                if len(fields) != width:
                    raise ValueError(
                        f"expected {width} fields, got {len(fields)}")
                s1, s2 = parse_slope(fields[1]), parse_slope(fields[2])
            except ValueError as exc:
                errors.append(f"{path}:{lineno}: {exc}")
                continue
            v = classify(s1, s2)
            classes[plot_class(v)] += 1
            orderable[v.left_orderable.value] += 1
            record = [
                fields[0].strip(), str(s1), str(s2),
                "true" if v.is_qhs else "false", str(v.homology[0]),
                str(v.homology[1]), v.lspace.value, v.taut_foliation.value,
                v.euler_vanishing.value, v.left_orderable.value]
            if width == 4:
                label = fields[3].strip()
                ok = label == v.left_orderable.value
                agree += ok
                record += [label, "true" if ok else "false"]
            records.append(record)
    writer.writerows(records)
    rows = sum(classes.values())
    summary = [f"rows: {rows}"]
    summary += [f"{k}: {n}" for k, n in classes.items()]
    summary += [f"left-orderable {k}: {n}" for k, n in orderable.items()]
    if width == 4:
        summary.append(f"label agreement: {agree}/{rows}")
    if errors:
        errors.append(f"failed rows: {len(errors)}")
    return out.getvalue(), records, summary, errors


def _fact_pair_rows():
    """(s1, s2) of every pair of FACT_REPRESENTATIVES, and of each of
    ODD_SPELLINGS beside each of them in either order."""
    reps = FACT_REPRESENTATIVES
    pairs = [(a, b) for a in reps for b in reps]
    return pairs + [(a, b) for odd in ODD_SPELLINGS for rep in reps
                    for a, b in ((odd, rep), (rep, odd))]


def test_batch_matches_pairwise_classify_on_every_fact_pair(tmp_path, capsys,
                                                            monkeypatch):
    pairs = _fact_pair_rows()
    pairs.insert(40, ("1/0/2", "1"))
    labels = ("yes", "no", "unknown", "na")
    text = "id,s1,s2,label\n" + "".join(
        f"r{i},{a},{b},{labels[i % 4]}\n" for i, (a, b) in enumerate(pairs))
    src = _write_csv(tmp_path / "in.csv", text)
    out = tmp_path / "out.csv"
    # The rules run once per fact pair the run meets, and at most 49 exist.
    calls = []
    decide = cli_batch._decide

    def counted(f1, f2):
        calls.append((f1, f2))
        return decide(f1, f2)

    monkeypatch.setattr(cli_batch, "_decide", counted)
    assert run_cli("batch", src, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"{src}:42: invalid slope token '1/0/2'", "failed rows: 1"]
    want_out, _, want_summary, want_err = _pairwise_batch(src)
    assert out.read_text() == want_out
    assert captured.out.splitlines() == want_summary
    assert captured.err.splitlines() == want_err
    assert len(calls) == len(set(calls)) <= 49


def test_batch_unlabelled_matches_pairwise_classify_on_every_fact_pair(
        tmp_path, capsys):
    # The row shape without the label column, on every fact pair, with ids
    # that csv must quote and one malformed row.
    idents = ["a,b", 'q"uote', "line\nbreak", "  padded  ", '"', ","]
    rows = [(idents[i % len(idents)] if i % 7 == 0 else f"r{i}", a, b)
            for i, (a, b) in enumerate(_fact_pair_rows())]
    rows.insert(30, ("bad", "1", "x/2"))
    src = tmp_path / "in.csv"
    with open(src, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(
            [("id", "s1", "s2"), *rows])
    out = tmp_path / "out.csv"
    assert run_cli("batch", str(src), "--out", str(out)) == 2
    captured = capsys.readouterr()
    want_out, want_records, want_summary, want_err = _pairwise_batch(src)
    with open(out, newline="") as fh:
        got = fh.read()
    assert got == want_out
    assert len(want_records) == len(rows) and len(want_records[0]) == 10
    assert any(line.startswith('"') for line in got.splitlines())
    assert captured.out.splitlines() == want_summary
    # Row 14's id spans two lines, so the bad row starts on line 33.
    assert captured.err.splitlines() == want_err == [
        f"{src}:33: invalid slope token 'x/2'", "failed rows: 1"]


def _distinct_tokens(rng, n):
    """``n`` valid slope tokens, no two alike once stripped."""
    tokens = {}
    while len(tokens) < n:
        p, q = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        tokens[rng.choice((f"{p}/{q}", f"{p}/-{q}", str(p)))] = None
    return list(tokens)


def _expected_parse_calls(pairs, cap):
    """`slope_terms` calls a batch run makes on rows of (s1, s2) fields
    with a least-recently-used token cache of ``cap`` entries: one per
    stripped token that is not in the cache, which a valid token then joins
    (a field after a malformed one is not read).  A hit makes a token the
    most recently used, and a token that joins a full cache drops the least
    recently used one."""
    cache, calls = OrderedDict(), 0
    for t1, t2 in pairs:
        for tok in (t1.strip(), t2.strip()):
            if tok in cache:
                cache.move_to_end(tok)
                continue
            calls += 1
            try:
                slope_terms(tok)
            except ValueError:
                break
            cache[tok] = None
            if len(cache) > cap:
                cache.popitem(last=False)
    return calls


def _batch_input(path, rows):
    """Write a labelled batch CSV of ``rows`` (id, s1, s2, label) through
    the csv module, every field quoted, and return its path.  Minimal
    quoting would leave a bare CR unquoted on some Python versions, and the
    row holding it would read back as two."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(
            [("id", "s1", "s2", "label"), *rows])
    return str(path)


def test_batch_parses_each_distinct_token_once(tmp_path, capsys,
                                               monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return slope_terms(text)

    monkeypatch.setattr(cli_batch, "slope_terms", counted)
    cap = cli_batch._BATCH_TOKENS

    def run(pairs, size=cap):
        monkeypatch.setattr(cli_batch, "_BATCH_TOKENS", size)
        src = _batch_input(tmp_path / "in.csv",
                           [(f"r{i}", a, b, "no")
                            for i, (a, b) in enumerate(pairs)])
        calls.clear()
        run_cli("batch", src, "--out", str(tmp_path / "out.csv"))
        capsys.readouterr()
        return len(calls)

    # Six distinct valid stripped tokens (-4/6 and -2/3 are two tokens of
    # one slope) and three malformed fields: nine calls, where parsing
    # every field the rows reach takes fifteen.  The 5/7 of row 4 is kept
    # although its row fails, and no field after a malformed one is read.
    pairs = [("1/2", " 1/2"), ("3", "1/2  "), ("x", "3"), ("5/7", "x"),
             (" 5/7", "5/7"), ("-4/6", "inf"), ("-2/3", " x "),
             ("inf", "-4/6")]
    assert run(pairs) == 6 + 3 == _expected_parse_calls(pairs, cap)
    assert run([("7", "7"), ("7", " 7 ")]) == 1

    # With room for four tokens, the 5 of the fifth row drops 2, the least
    # recently used, while 1, used in every row, is read once; 2 is read
    # again in the last row and drops 3.  Emptying the cache when full
    # would read 1 and 4 again too: eight calls.
    pairs = [("1", "2"), ("2", "1"), ("3", "3"), ("1", "4"), ("5", "1"),
             ("1", "5"), ("2", "4")]
    assert run(pairs, size=4) == 2 + 0 + 1 + 1 + 1 + 0 + 1
    assert _expected_parse_calls(pairs, 4) == 6

    # At the real size, on random tokens revisited after they are dropped:
    # half the fields come from 300 frequent tokens, the rest from all.
    rng = random.Random(21)
    tokens = _distinct_tokens(rng, cap + 600) + ["x", " 1/0/2 ", ""]

    def field():
        return rng.choice(tokens[:300] if rng.random() < 0.5 else tokens)

    pairs = [(field(), field()) for _ in range(3 * cap)]
    want = _expected_parse_calls(pairs, cap)
    assert want < len(pairs)
    assert run(pairs) == want


def test_batch_token_table_matches_pairwise_classify(tmp_path, capsys):
    # More distinct tokens than the cache holds, so it drops the least
    # recently used; early tokens and dropped ones come back, space-padded
    # or not, beside the odd spellings, malformed fields and ids and
    # labels csv must quote.
    cap = cli_batch._BATCH_TOKENS
    rng = random.Random(8)
    fresh = _distinct_tokens(rng, cap + 300)
    early = fresh[:200] + list(FACT_REPRESENTATIVES) + list(ODD_SPELLINGS)
    bad = ["x", "1/0/2", "", " 1.5 ", "0/0", "9" * (MAX_SLOPE_TOKEN + 1)]
    idents = ["a,b", 'q"uote', "line\nbreak", "cr\rx", "  padded  "]
    labels = ["yes", "no", "unknown", "na", "y,es", ' "no" ']
    rows = []
    for i, tok in enumerate(early + fresh + early + fresh[200:300]):
        other = rng.choice(early)
        pad = " " * rng.randrange(3)
        if i % 97 == 0:
            other = rng.choice(bad)
        ident = rng.choice(idents) if i % 53 == 0 else f"r{i}"
        rows.append((ident, pad + tok + pad, other, rng.choice(labels)))
        if i % 401 == 0:
            rows.append((f"s{i}", other, tok, "na"))
    src = _batch_input(tmp_path / "in.csv", rows)
    with open(src, "a") as fh:
        fh.write("short,1\n\n")
    out = tmp_path / "out.csv"
    assert run_cli("batch", src, "--out", str(out)) == 2
    captured = capsys.readouterr()
    want_out, want_records, want_summary, want_err = _pairwise_batch(src)
    with open(out, newline="") as fh:
        got = fh.read()
    # Every record reads back as written.  On some Python versions
    # csv.writer leaves a bare CR unquoted, so a reader splits that record
    # in two; the records holding one are checked by the read-back only.
    assert list(csv.reader(io.StringIO(got, newline=""))) == want_records
    assert any("\r" in record[0] for record in want_records)

    def without_cr(text):
        return [line for line in text.split("\n") if "\r" not in line]

    assert without_cr(got) == without_cr(want_out)
    assert captured.out.splitlines() == want_summary
    assert captured.err.splitlines() == want_err
    assert any('"' in line for line in want_out.splitlines()[1:])
    assert len(want_err) > 2 * len(bad)


def _loaded_after(runs, then=""):
    """Exit codes of ``cli.main`` on each argv in ``runs``, run in process
    after a fresh import, and the modules loaded once the statements in
    ``then`` have run too."""
    # Each argv travels as one argument joined by "\x1f", so the child
    # imports no json of its own.
    script = (
        "import contextlib, io, sys\n"
        "import slope_atlas.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [cli.main(arg.split('\\x1f')) for arg in sys.argv[1:]]\n"
        + then + "print(*codes, *sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script,
                           *("\x1f".join(argv) for argv in runs)],
                          capture_output=True, text=True, env=_child_env(),
                          check=True)
    words = proc.stdout.split()
    return words[:len(runs)], set(words[len(runs):])


_REGION_MODULES = ("dataclasses", "slope_atlas.slopes", "slope_atlas.lspace",
                   "slope_atlas.monodromy", "slope_atlas.branched")
_COMMAND_MODULES = ("slope_atlas.cli_batch", "slope_atlas.cli_regions",
                    "slope_atlas.cli_plot")


def test_cli_import_leaves_cone_modules_unloaded(tmp_path):
    # The verdict commands, run in process after the import, load neither
    # the region modules nor dataclasses, nor fractions or decimal.  batch
    # loads its own command module and neither other one.
    src = tmp_path / "in.csv"
    src.write_text("id,s1,s2,label\na,1,2,no\nb,-3,5/6,yes\nc,x,1,no\n")
    codes, loaded = _loaded_after(
        [["classify", "--", "-3", "5/6"],
         ["batch", str(src), "--out", str(tmp_path / "out.csv")]])
    assert codes == ["0", "2"]
    assert {"slope_atlas.rational", "slope_atlas.whitehead", "csv",
            "slope_atlas.cli_batch"} <= loaded
    assert "slope_atlas.cli_regions" not in loaded
    assert "slope_atlas.cli_plot" not in loaded
    # The argument parser loads no argparse, and through it no gettext or
    # locale.
    unloaded = _REGION_MODULES + ("fractions", "decimal", "argparse",
                                  "gettext", "locale")
    for name in unloaded:
        assert name not in loaded
    # Only batch reads CSV, so only batch loads csv; the import, --help
    # and classify compile no command module, and plot, in either format,
    # compiles only its own.  The import and --help load neither the slope
    # reader nor the verdict rules; classify and plot load both.
    plot = ["plot", "--bounds", "-2:2,1:2"]
    verdict = ("slope_atlas.rational", "slope_atlas.whitehead")
    own_plot = ("slope_atlas.cli_plot", *verdict)
    for runs, own in (([], ()), ([["--help"]], ()),
                      ([["classify", "--", "-3", "5/6"]], verdict),
                      ([plot], own_plot),
                      ([plot + ["--format", "svg"]], own_plot)):
        codes, loaded = _loaded_after(runs)
        assert codes == ["0"] * len(runs)
        assert {"slope_atlas.cli_output", *own} <= loaded
        for name in unloaded + _COMMAND_MODULES + verdict + ("csv",):
            assert name in own or name not in loaded


def test_only_json_output_loads_json(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text("id,s1,s2\na,1,2\n")
    codes, loaded = _loaded_after(
        [["batch", str(src), "--out", str(tmp_path / "out.csv")],
         ["plot", "--bounds", "-2:2,1:2"],
         ["plot", "--bounds", "-2:2,1:2", "--format", "svg"]])
    assert codes == ["0", "0", "0"]
    assert "json" not in loaded
    codes, loaded = _loaded_after([["classify", "--", "-3", "5/6"]])
    assert codes == ["0"] and "json" in loaded


def test_region_commands_and_cone_search_leave_dataclasses_unloaded():
    codes, loaded = _loaded_after(
        [["monodromy", "1; 5, 10, -5"], ["region", "--json"]],
        then="from slope_atlas import branched, monodromy\n"
             "m = monodromy.Monodromy(1, (1, -1))\n"
             "c = branched.complexes_for(m)['parallel']\n"
             "assert len(branched.carried_weight_cone(c, 2)) == 3\n")
    assert codes == ["0", "0"]
    assert {"slope_atlas.lspace", "slope_atlas.monodromy",
            "slope_atlas.branched", "slope_atlas.cli_regions"} <= loaded
    assert "dataclasses" not in loaded
    assert "slope_atlas.cli_batch" not in loaded
    assert "slope_atlas.cli_plot" not in loaded


def test_monodromy_leaves_lspace_and_whitehead_unloaded():
    # Only region needs the L-space region and the Whitehead link's
    # foliation region, so monodromy, in either format, compiles neither.
    codes, loaded = _loaded_after([["monodromy", "1; 5, 10, -5"],
                                   ["monodromy", "1; 1, -1", "--json"]])
    assert codes == ["0", "0"]
    assert {"slope_atlas.monodromy", "slope_atlas.cli_regions"} <= loaded
    assert "slope_atlas.lspace" not in loaded
    assert "slope_atlas.whitehead" not in loaded


def test_no_command_imports_the_cli_a_second_time(tmp_path):
    # Under `python -m slope_atlas.cli` the module runs as __main__, so a
    # command module that imported from `slope_atlas.cli` would compile and
    # run it a second time, and -X importtime would list it.
    src = tmp_path / "in.csv"
    src.write_text("id,s1,s2\na,1,2\n")
    for argv in (["classify", "--", "-3", "5/6"],
                 ["monodromy", "1; 5, 10, -5"], ["region", "--json"],
                 ["batch", str(src), "--out", str(tmp_path / "out.csv")],
                 ["plot", "--bounds", "-2:2,1:2"],
                 ["plot", "--bounds", "-2:2,1:2", "--format", "svg"],
                 ["--help"]):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "slope_atlas.cli",
             *argv], capture_output=True, text=True, env=_child_env(),
            check=True)
        names = [line.rsplit("|", 1)[-1].strip()
                 for line in proc.stderr.splitlines()
                 if line.startswith("import time:")]
        # Every run loads cli_output, so -X importtime listed the package.
        assert "slope_atlas.cli_output" in names, argv
        assert "slope_atlas.cli" not in names, argv


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def test_plot_tsv_matches_classifier(capsys):
    assert run_cli("plot", "--bounds", "1:2,1:2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "s1\ts2\tclass"
    assert len(lines) == 1 + 9     # three slopes: 1/2, 1, 2
    for line in lines[1:]:
        a, b, cls = line.split("\t")
        assert cls == plot_class(classify(parse_slope(a), parse_slope(b)))


def test_plot_tsv_includes_infinity(capsys):
    assert run_cli("plot", "--bounds", "0:1,0:1") == 0
    lines = capsys.readouterr().out.splitlines()
    slopes = {line.split("\t")[0] for line in lines[1:]}
    assert slopes == {"0", "1", "inf"}
    assert lines[-1].startswith("inf\tinf\t")


def test_plot_grid_order_and_max_den():
    slopes = cli_plot.grid_slopes((1, 3, -2, 2))
    assert [str(s) for s in slopes] == ["-3", "-2", "-3/2", "-1", "-1/2",
                                        "1/2", "1", "3/2", "2", "3", "inf"]
    assert [str(s) for s in cli_plot.grid_slopes((1, 3, -2, 2),
                                                 max_den=1)] == \
        ["-3", "-2", "-1", "1", "2", "3", "inf"]


def test_plot_svg_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run_cli("plot", "--bounds", "1:2,1:2", "--format", "svg",
                   "--out", str(a)) == 0
    assert run_cli("plot", "--bounds", "1:2,1:2", "--format", "svg",
                   "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg ") or text.startswith('<svg')
    assert 'width="640"' in text and text.rstrip().endswith("</svg>")


def test_plot_svg_places_lspace_point_in_red(tmp_path):
    out = tmp_path / "plot.svg"
    assert run_cli("plot", "--bounds", "1:2,1:2", "--format", "svg",
                   "--out", str(out)) == 0
    text = out.read_text()
    lo, hi = parse_slope("1/2"), parse_slope("2")
    cx = cli_plot.svg_coord(parse_slope("1"), lo, hi)
    cy = cli_plot.svg_coord(parse_slope("1"), lo, hi, flip=True)
    assert f'<circle cx="{cx}" cy="{cy}" r="3" fill="red"/>' in text
    assert 'fill="blue"' in text


def test_plot_svg_places_foliation_point_in_blue(tmp_path):
    out = tmp_path / "plot.svg"
    assert run_cli("plot", "--bounds", "3:5,-1:6", "--format", "svg",
                   "--out", str(out)) == 0
    text = out.read_text()
    finite = [s for s in cli_plot.grid_slopes(
        cli_plot.parse_bounds("3:5,-1:6"), None) if s.is_finite()]
    lo, hi = min(finite), max(finite)
    cx = cli_plot.svg_coord(parse_slope("-3"), lo, hi)
    cy = cli_plot.svg_coord(parse_slope("5/6"), lo, hi, flip=True)
    assert f'<circle cx="{cx}" cy="{cy}" r="3" fill="blue"/>' in text


def _fraction_coord(value, lo, hi, flip=False):
    """The SVG coordinate string in exact Fraction arithmetic: a reference
    for `cli_plot.svg_coord`, which works in integers."""
    frac = Fraction(1, 2) if hi == lo else (value - lo) / (hi - lo)
    return f"{float(40 + (1 - frac if flip else frac) * 560):.2f}"


def test_svg_coord_matches_fraction_arithmetic():
    # Half the values put the exact coordinate on a decimal tie x.xx5,
    # where a result off by one unit in the last place can print
    # differently.
    rng = random.Random(5)
    for j in range(2000):
        lo, value, hi = sorted(
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            for _ in range(3))
        if j % 2:
            tie = Fraction(2 * rng.randint(8000, 119999) + 1, 200)
            value = lo + (tie - 40) / 560 * (hi - lo)
        if rng.random() < 0.05:
            value = hi = lo
        slopes = [ExtRational(x.numerator, x.denominator)
                  for x in (value, lo, hi)]
        for flip in (False, True):
            assert cli_plot.svg_coord(*slopes, flip=flip) == _fraction_coord(
                value, lo, hi, flip)


def _plot_pairwise(bounds, max_den, fmt):
    """Reference `plot` output, classified and rendered pair by pair."""
    slopes = cli_plot.grid_slopes(cli_plot.parse_bounds(bounds), max_den)
    records = [(s1, s2, plot_class(classify(s1, s2)))
               for s1 in slopes for s2 in slopes]
    if fmt == "tsv":
        return "".join(["s1\ts2\tclass\n"] + [f"{s1}\t{s2}\t{cls}\n"
                                               for s1, s2, cls in records])
    finite = [(Fraction(s1.num, s1.den), Fraction(s2.num, s2.den), cls)
              for s1, s2, cls in records
              if s1.is_finite() and s2.is_finite()]
    values = [v for s1, s2, _ in finite for v in (s1, s2)]
    lo, hi = min(values), max(values)
    colors = {"lspace": "red", "foliation": "blue", "non-qhs": "gray"}
    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" '
             'height="640" viewBox="0 0 640 640">',
             '<rect width="640" height="640" fill="white"/>',
             '<rect x="40" y="40" width="560" height="560" fill="none" '
             'stroke="black"/>']
    lines += [f'<circle cx="{_fraction_coord(s1, lo, hi)}" '
              f'cy="{_fraction_coord(s2, lo, hi, flip=True)}" r="3" '
              f'fill="{colors[cls]}"/>' for s1, s2, cls in finite]
    lines += ['<text x="40" y="24" font-size="12">'
              'red: lspace  blue: foliation  gray: non-qhs</text>', "</svg>"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("bounds, max_den", [
    ("1:2,1:2", None),
    ("0:1,0:1", None),      # holds inf, which the SVG drops
    ("-3:3,-2:2", 1),
    ("5:5,1:1", None),      # one finite slope: the hi == lo branch
    ("-3:3,0:2", None),     # every slope fact
])
def test_plot_output_matches_pairwise_rendering(capsys, bounds, max_den):
    den_args = [] if max_den is None else ["--max-den", str(max_den)]
    slopes = cli_plot.grid_slopes(cli_plot.parse_bounds(bounds), max_den)
    if bounds == "-3:3,0:2":
        assert len(slopes) == 12 and len(
            {_cell(s.num, s.den) for s in slopes}) == 7
    n_finite = sum(s.is_finite() for s in slopes)
    for fmt in ("tsv", "svg"):
        assert run_cli("plot", f"--bounds={bounds}", "--format", fmt,
                       *den_args) == 0
        out = capsys.readouterr().out
        assert out == _plot_pairwise(bounds, max_den, fmt)
        if fmt == "svg":
            assert out.count("<circle ") == n_finite ** 2
            assert "inf" not in out


def test_plot_decides_each_row_once_per_fact(capsys, monkeypatch):
    # A class depends only on its two slopes' cells, of which at most 7
    # exist, so `plot` needs at most 49 plot_class calls in all, not one
    # per pair or one per column of each cell's row.
    calls = 0

    def counted(verdict):
        nonlocal calls
        calls += 1
        return plot_class(verdict)

    monkeypatch.setattr(cli_plot, "plot_class", counted)
    assert run_cli("plot", "--bounds=-16:16,1:16") == 0
    n = len(cli_plot.grid_slopes(cli_plot.parse_bounds("-16:16,1:16")))
    assert capsys.readouterr().out.count("\n") == n * n + 1
    assert n == 319 and 0 < calls <= 49


def test_plot_memory_flat_in_grid_size(tmp_path):
    # Each slope's block is written as it is formed, so the largest grid
    # the bounds allow (8 MB of TSV, 20 MB of SVG) peaks near a small one;
    # a plot that joined its whole output first would peak 20 to 60 MiB
    # higher.
    out = tmp_path / "plot.txt"
    for fmt in ("tsv", "svg"):
        peaks = {}
        for bounds in ("-2:2,1:2", "-16:16,1:31"):
            rc, peaks[bounds] = _peak_mib("plot", f"--bounds={bounds}",
                                          "--format", fmt, "--out", out)
            assert rc == "0"
        assert out.stat().st_size > 8_000_000
        assert peaks["-16:16,1:31"] - peaks["-2:2,1:2"] < 5, (fmt, peaks)


def test_plot_out_stays_atomic_while_streaming(tmp_path, capsys,
                                               monkeypatch):
    out = tmp_path / "plot.svg"
    out.write_bytes(b"old contents\n")
    coord, xs = cli_plot.svg_coord, []

    def failing_coord(value, lo, hi, flip=False):
        # The x coordinates are formed as the circles are written, so the
        # fault comes after the first four slopes' blocks.
        if not flip:
            xs.append(value)
            if len(xs) == 5:
                raise ValueError("renderer fault")
        return coord(value, lo, hi, flip)

    monkeypatch.setattr(cli_plot, "svg_coord", failing_coord)
    assert run_cli("plot", "--bounds=-3:3,1:3", "--format", "svg",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: renderer fault\n"
    assert out.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["plot.svg"]


def test_plot_svg_without_finite_slopes_exits_2(capsys):
    assert run_cli("plot", "--bounds", "1:1,0:0", "--format", "svg") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no finite slope pairs to plot\n"


def test_plot_bounds_without_slopes_exit_2(tmp_path, capsys):
    # 0/0 is no slope, and 2/4 = 1/2 is cut by --max-den 1.
    out = tmp_path / "plot.txt"
    for args in (["--bounds", "0:0,0:0"],
                 ["--bounds", "2:2,4:4", "--max-den", "1"]):
        for fmt in ("tsv", "svg"):
            assert run_cli("plot", *args, "--format", fmt,
                           "--out", str(out)) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: bounds produce no slopes\n"
            assert os.listdir(tmp_path) == []


def test_plot_rejects_bad_bounds(capsys):
    assert run_cli("plot", "--bounds", "1:2") == 2
    assert run_cli("plot", "--bounds", "2:1,0:1") == 2
    assert run_cli("plot", "--bounds", "1:2,1:2", "--max-den", "0") == 2
    assert run_cli("plot", "--bounds", "1:\u0663,1:2") == 2
    capsys.readouterr()
    for max_den in ("\u0661", "1_0", "+1", "9" * 5000):
        assert run_cli("plot", "--bounds", "1:2,1:2", "--max-den",
                       max_den) == 2
        err = capsys.readouterr().err
        assert "--max-den" in err and max_den[:MAX_SLOPE_TOKEN] in err
        assert len(err) < 2 * MAX_SLOPE_TOKEN
    assert run_cli("plot", "--bounds", "1:" + "9" * 5000 + ",1:2") == 2
    assert len(capsys.readouterr().err) < 2 * MAX_SLOPE_TOKEN
    # Every point of a 0:0 grid is the slope 0, so only the cap can fail.
    top = cli_plot.MAX_GRID_POINTS
    assert run_cli("plot", f"--bounds=0:0,1:{top}") == 0
    capsys.readouterr()
    assert run_cli("plot", f"--bounds=0:0,0:{top}") == 2
    assert "grid points" in capsys.readouterr().err


def test_plot_accepts_bare_negative_bounds(capsys):
    for bounds in ("-2:2,1:3", "-16:16,1:16"):
        assert run_cli("plot", f"--bounds={bounds}") == 0
        expected = capsys.readouterr().out
        assert run_cli("plot", "--bounds", bounds) == 0
        assert capsys.readouterr().out == expected


def test_bounds_parser():
    assert cli_plot.parse_bounds("-3:3,-2:2") == (-3, 3, -2, 2)
    with pytest.raises(ValueError):
        cli_plot.parse_bounds("a:b,c:d")
