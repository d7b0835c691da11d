"""End-to-end tests of the command-line interface via main(argv)."""

import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from syzcheck.cli import build_parser, main
from syzcheck.koszul import TorSlice, tor_dimension
from syzcheck.lattice import compositions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FORMAT = ("--format", False, "text", ("json", "csv", "text"))
STORE = ("--store", False, None, None)
SLACK = ("--slack", False, None, None)


def required(*options):
    return [(option, True, None, None) for option in options]


# every subcommand in registration order, with each option in the order
# of its usage line: (option, required, default, choices)
FLAGS = {
    "points": required("-n", "-d") + [FORMAT],
    "complex": required("-n", "-d", "-b", "-j") + [FORMAT],
    "betti": required("-n", "-d", "-b", "-j") + [FORMAT],
    "check-np": required("-n", "-d", "-p") + [SLACK, FORMAT, STORE],
    "koszul": required("-n", "-d", "-p", "-q") + [("-b", False, None, None), FORMAT],
    "schur": required("-p", "-q", "-d", "--vdim") + [FORMAT],
    "cross-validate": required("-n", "-d", "-p", "-q") + [FORMAT, STORE],
    "bench": required("-n", "-d", "-p") + [SLACK, STORE],
}


def test_every_subcommand_keeps_its_flags():
    subs, = (a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(FLAGS)
    for name, sub in subs.choices.items():
        flags = [(" ".join(a.option_strings), a.required, a.default, a.choices)
                 for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        assert flags == FLAGS[name], name


@pytest.mark.parametrize("command", list(FLAGS))
def test_every_subcommand_prints_its_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: syzcheck {command} [-h]")


def test_points_rows(capsys):
    code, out, _ = run(capsys, "points", "-n", "1", "-d", "3")
    assert code == 0
    assert out.splitlines() == ["3 0", "2 1", "1 2", "0 3"]
    code, out, _ = run(capsys, "points", "-n", "4", "-d", "3")
    assert code == 0
    assert len(out.splitlines()) == 35


def test_points_formats(capsys):
    code, out, _ = run(capsys, "points", "-n", "1", "-d", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["count"] == 3
    assert doc["points"][0] == [2, 0]
    code, out, _ = run(capsys, "points", "-n", "1", "-d", "2", "--format", "csv")
    assert out.splitlines()[0] == "2,0"


def test_points_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["points", "-n", "0", "-d", "2"])
    assert exc.value.code == 2


def test_betti_values(capsys):
    code, out, _ = run(capsys, "betti", "-n", "1", "-d", "3", "-b", "3,3",
                       "-j", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 1 and doc["certified"] is True
    code, out, _ = run(capsys, "betti", "-n", "1", "-d", "3", "-b", "6,0",
                       "-j", "0", "--format", "json")
    assert json.loads(out)["value"] == 0


def test_betti_above_the_top_dimension(capsys):
    # 3 vertices, one edge: nothing above dimension 1, so the answer is 0
    code, out, err = run(capsys, "betti", "-n", "1", "-d", "2", "-b", "2,2", "-j", "45")
    assert (code, err) == (0, "")
    assert out == "reduced homology rank at b=(2, 2), dimension 45: 0 (certified)\n"


def test_betti_far_above_the_top_dimension_runs_no_cascade(capsys, monkeypatch):
    # dimension 30000 has no face, so the rank is 0 before any cascade round
    def no_cascade(*args):
        raise AssertionError("cascade ran on an empty level")

    monkeypatch.setattr("syzcheck.homology._reduce_band", no_cascade)
    code, out, err = run(capsys, "betti", "-n", "1", "-d", "2", "-b", "2,2", "-j", "30000")
    assert (code, err) == (0, "")
    assert out == "reduced homology rank at b=(2, 2), dimension 30000: 0 (certified)\n"


def test_betti_far_above_the_top_dimension_stores_no_level(capsys):
    # the band 299999..300001 lies above the first empty level (dimension
    # 2), so no level of it is stored and memory does not grow with j
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "betti", "-n", "1", "-d", "2", "-b", "2,2",
                             "-j", "300000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert out == "reduced homology rank at b=(2, 2), dimension 300000: 0 (certified)\n"
    assert peak < 2**20


def test_betti_on_faces_wider_than_64_bit_keys(capsys):
    # 18 vertices and faces of 16: whole-row keys in base 18 would need
    # 18**16 > 2**63. The Koszul oracle gives the same weight the same 1.
    code, out, err = run(capsys, "betti", "-n", "1", "-d", "17", "-b", "151,121", "-j", "14")
    assert (code, err) == (0, "")
    assert out == "reduced homology rank at b=(151, 121), dimension 14: 1 (certified)\n"
    assert tor_dimension(15, 1, 1, 17, weight=(151, 121)).total_dim == 1


@pytest.mark.parametrize("command", [
    ("betti", "-n", "1", "-d", "2", "-j", "0", "-b"),
    ("complex", "-n", "1", "-d", "2", "-j", "0,1", "-b"),
])
def test_bound_of_2_to_the_63_exits_2(capsys, command):
    # a coordinate of 2**63 cannot be packed into a 64-bit word with its
    # guard bit: refused with a message naming the limit, not a traceback
    code, out, err = run(capsys, *command, f"{2**63},0")
    assert (code, out) == (2, "")
    assert err == "error: bound and point coordinates must be below 2**63\n"
    # 2**63 - 1 still fits, as one 64-bit field per word
    code, out, err = run(capsys, *command, f"{2**63 - 1},1")
    assert (code, err) == (0, "")
    assert out.endswith(": 0 (certified)\n" if command[0] == "betti" else "1: 0 1\n")


def test_two_thousand_coordinates(capsys):
    # 2,001 coordinates: the compositions and partitions behind these
    # commands are enumerated without one recursion level per part
    code, out, err = run(capsys, "points", "-n", "2000", "-d", "1")
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert len(rows) == 2001
    assert rows[0] == " ".join(["1"] + ["0"] * 2000)
    assert rows[-1] == " ".join(["0"] * 2000 + ["1"])
    code, out, err = run(capsys, "check-np", "-n", "2000", "-d", "1", "-p", "1")
    assert (code, err) == (0, "")
    assert "holds up to the checked degree bound" in out


def test_betti_rejects_a_negative_dimension(capsys):
    # -j -1 would need dimension -2, which no band has: refused while the
    # arguments are parsed, naming the accepted range
    with pytest.raises(SystemExit) as exc:
        main(["betti", "-n", "2", "-d", "2", "-b", "2,2,2", "-j", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument -j: homological dimension must be 0 or more, got -1" in err
    with pytest.raises(SystemExit) as exc:
        main(["betti", "-n", "2", "-d", "2", "-b", "2,2,2", "-j", "x"])
    assert exc.value.code == 2
    assert "argument -j: invalid int value: 'x'" in capsys.readouterr().err
    code, out, _ = run(capsys, "betti", "-n", "2", "-d", "2", "-b", "2,2,2", "-j", "0")
    assert code == 0 and out.endswith(": 0 (certified)\n")


def test_points_rejects_a_non_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["points", "-n", "x", "-d", "2"])
    assert exc.value.code == 2
    assert "argument -n: invalid int value: 'x'" in capsys.readouterr().err


def test_betti_membership_error(capsys):
    code, _, err = run(capsys, "betti", "-n", "1", "-d", "3", "-b", "4,0", "-j", "0")
    assert code == 2
    assert "not in the semigroup" in err


def test_betti_bad_multidegree_syntax(capsys):
    # "" splits to [""], so an empty multidegree fails as a bad integer
    for b in ("3,x", ""):
        code, _, err = run(capsys, "betti", "-n", "1", "-d", "3", "-b", b, "-j", "0")
        assert code == 2
        assert f"multidegree {b!r} is not comma-separated integers" in err


def test_complex_bad_band_syntax(capsys):
    code, out, err = run(capsys, "complex", "-n", "1", "-d", "2", "-b", "2,2", "-j", "5")
    assert (code, out) == (2, "")
    assert "-j expects 'lo,hi', got '5'" in err


def test_canonicalization_notice(capsys):
    code, out, err = run(capsys, "betti", "-n", "1", "-d", "3", "-b", "3,6",
                         "-j", "1", "--format", "json")
    assert code == 0
    assert "canonicalized" in err
    assert json.loads(out)["b"] == [6, 3]


def test_no_canonicalization_notice_for_a_rejected_multidegree(capsys):
    code, out, err = run(capsys, "betti", "-n", "2", "-d", "2", "-b", "1,2", "-j", "0")
    assert (code, out, err) == (2, "", "error: vector has wrong length\n")


def test_complex_text_and_json(capsys):
    code, out, _ = run(capsys, "complex", "-n", "1", "-d", "2", "-b", "4,2",
                       "-j=-1,1")
    assert code == 0
    assert out.splitlines()[0] == "-1:"
    code, out, _ = run(capsys, "complex", "-n", "1", "-d", "2", "-b", "4,2",
                       "-j=-1,1", "--format", "json")
    doc = json.loads(out)
    assert doc["bound"] == [4, 2]
    code, _, err = run(capsys, "complex", "-n", "1", "-d", "2", "-b", "4,2",
                       "-j=-1,1", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_check_np_exit_codes(capsys):
    code, out, _ = run(capsys, "check-np", "-n", "2", "-d", "2", "-p", "2")
    assert code == 0
    assert "holds up to the checked degree bound" in out
    code, out, _ = run(capsys, "check-np", "-n", "3", "-d", "2", "-p", "6",
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fails"
    assert doc["witness"]["b"] == [4, 4, 4, 4]
    # no --qmax: -p alone sets the levels checked, which the headline names
    with pytest.raises(SystemExit) as exc:
        main(["check-np", "-n", "2", "-d", "3", "-p", "7", "--qmax", "6"])
    assert exc.value.code == 2
    # no --threads: every job runs inline
    for command in ("check-np", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([command, "-n", "2", "-d", "2", "-p", "2", "--threads", "2"])
        assert exc.value.code == 2


def test_check_np_refuses_an_unenumerable_window_at_once():
    # the top degree's coordinate sum, (p + 2 + slack) * d, is over the
    # weight guard: refused before the sweep walks every degree below it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for flags in (("-n", "1", "-d", "2", "-p", "2", "--slack", "10000000"),
                  ("-n", "3", "-d", "3", "-p", "3", "--slack", "600000")):
        proc = subprocess.run([sys.executable, "-c", "import sys; from syzcheck.cli "
                               "import main; sys.exit(main(sys.argv[1:]))",
                               "check-np", *flags],
                              env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 2, flags
        assert proc.stderr.startswith("capacity error: coordinate sum"), proc.stderr


def run_timed(*argv):
    # exit code, stdout and stderr of the command in a fresh interpreter, the
    # seconds its main() took and the interpreter's peak RSS in MiB, which it
    # writes as the last stderr line
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", "import resource, sys, time; from syzcheck.cli "
                           "import main; start = time.perf_counter(); "
                           "code = main(sys.argv[1:]); print(time.perf_counter() - start, "
                           "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "
                           "file=sys.stderr); sys.exit(code)", *argv],
                          env=env, capture_output=True, text=True, timeout=20)
    stderr, _, last = proc.stderr.rstrip("\n").rpartition("\n")
    seconds, peak = map(float, last.split())
    return proc.returncode, proc.stdout, stderr, seconds, peak


def assert_window_refused_within_a_second(*argv):
    code, out, err, seconds, _ = run_timed(*argv)
    assert code == 2 and out == "", argv
    assert err.startswith("capacity error: window of q = 2"), err
    assert "orbit representatives" in err
    assert seconds < 1.0, argv


def test_check_np_refuses_a_window_of_too_many_representatives_at_once():
    # top sums under the weight guard, but about 500,000 representatives per
    # degree, and tens of millions: refused within a second, before any job
    for flags in (("-n", "1", "-d", "1", "-p", "2", "--slack", "999990"),
                  ("-n", "3", "-d", "3", "-p", "3", "--slack", "1000"),
                  ("-n", "10000", "-d", "1", "-p", "2")):
        assert_window_refused_within_a_second("check-np", *flags)


def test_cross_validate_refuses_a_block_of_too_many_representatives_at_once():
    # one block at degree 302 of v_3(P^3), about 5.2 million representatives:
    # refused within a second, before any job
    assert_window_refused_within_a_second("cross-validate", "-n", "3", "-d", "3",
                                          "-p", "2", "-q", "300")


def test_a_reader_that_closes_the_pipe_early_leaves_the_exit_code():
    # 269,031 bytes of JSON, more than a pipe holds: the reader takes 100
    # bytes and closes the pipe, and the command still exits 0, silently
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-c", "import sys; from syzcheck.cli "
                             "import main; sys.exit(main(sys.argv[1:]))",
                             "points", "-n", "3", "-d", "30", "--format", "json"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    assert proc.wait(timeout=20) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_check_np_reruns_byte_identical(capsys):
    first = run(capsys, "check-np", "-n", "2", "-d", "2", "-p", "2",
                "--format", "json")
    second = run(capsys, "check-np", "-n", "2", "-d", "2", "-p", "2",
                 "--format", "json")
    assert first == second
    json.loads(first[1])


def test_koszul_command(capsys):
    code, out, _ = run(capsys, "koszul", "-n", "1", "-d", "2", "-p", "1", "-q", "1")
    assert code == 0
    assert "total_dim 1" in out
    code, out, _ = run(capsys, "koszul", "-n", "1", "-d", "3", "-p", "1",
                       "-q", "1", "--format", "json")
    doc = json.loads(out)
    assert doc["total_dim"] == 3
    assert {"b": [3, 3], "mult": 1} in doc["weights"]
    code, out, _ = run(capsys, "koszul", "-n", "1", "-d", "3", "-p", "1",
                       "-q", "1", "-b", "4,2", "--format", "json")
    assert json.loads(out)["total_dim"] == 1


def test_a_wedge_power_above_the_monomial_count_is_zero_within_a_second():
    # Sym^1 V of P^1 has 2 monomials, so wedge^p of it is zero for p > 2: the
    # piece is 0 at once, with no loop, rank row or index per wedge factor,
    # and without -b, with no walk over the partitions of (p + q) d
    for p, weight in [(10_000_000, ["-b", "5000000,5000001"]),
                      (1_000_000_000, ["-b", "500000000,500000001"]), (100_000_000, [])]:
        code, out, _, seconds, _ = run_timed("koszul", "-n", "1", "-d", "1", "-p", str(p),
                                             "-q", "1", *weight)
        assert code == 0, p
        assert out == f"graded piece (p={p}, q=1): total_dim 0\n"
        assert seconds < 1.0, p


def test_a_sweep_of_half_a_million_weights_answers_in_bounded_batches():
    # wedge^1 of the two linear forms against Sym^999998: 500,000 dominant
    # weights, each with a middle term of at most 2 elements, ranked in
    # batches whose fit tables hold at most DEFAULT_BASIS_GUARD subsets.
    # About 1.5 s at a 350 MiB peak on a 2 vCPU host
    code, out, _, seconds, peak = run_timed("koszul", "-n", "1", "-d", "1", "-p", "1",
                                            "-q", "999998")
    assert (code, out) == (0, "graded piece (p=1, q=999998): total_dim 0\n")
    assert seconds < 10.0 and peak < 512, (seconds, peak)


def test_koszul_short_weight_names_its_length(capsys):
    # one coordinate on P^1: the length is wrong before the sum is
    code, out, err = run(capsys, "koszul", "-n", "1", "-d", "2", "-p", "1",
                         "-q", "1", "-b", "3")
    assert (code, out) == (2, "")
    assert "weight has wrong length" in err


def test_schur_command(capsys):
    code, out, _ = run(capsys, "schur", "-p", "2", "-q", "2", "-d", "2",
                       "--vdim", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(len(term["partition"]) <= 3 for term in doc)
    code, out, _ = run(capsys, "schur", "-p", "1", "-q", "1", "-d", "2",
                       "--vdim", "2", "--format", "json")
    assert json.loads(out) == [{"partition": [2, 2], "mult": 1}]
    code, _, err = run(capsys, "schur", "-p", "2", "-q", "1", "-d", "2",
                       "--vdim", "2")
    assert code == 2


def test_cross_validate_command(capsys):
    code, out, _ = run(capsys, "cross-validate", "-n", "1", "-d", "3",
                       "-p", "1", "-q", "1")
    assert code == 0
    assert "3 matches, 0 mismatches" in out
    code, out, _ = run(capsys, "cross-validate", "-n", "1", "-d", "2",
                       "-p", "1", "-q", "1", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "b,tor,betti"
    assert "2 2,1,1" in lines


def test_cross_validate_disagreement_exits_1(capsys, monkeypatch):
    # a pipeline disagreement is a negative verdict: exit 1, as README says
    def disagreeing(p, q, n, d, weight=None):
        # one more than the real value at every weight of the piece
        real = tor_dimension(p, q, n, d, weight=weight)
        weights = {b: real.weights.get(b, 0) + 1 for b in compositions((p + q) * d, n + 1)}
        return TorSlice(p=p, q=q, total_dim=sum(weights.values()), weights=weights)

    monkeypatch.setattr("syzcheck.npchecker.tor_dimension", disagreeing)
    code, out, err = run(capsys, "cross-validate", "-n", "1", "-d", "2", "-p", "1", "-q", "1")
    assert (code, out) == (1, "")
    assert err.startswith("mismatch: pipelines disagree at b=")


def test_running_out_of_memory_exits_2(capsys, monkeypatch):
    # exit 1 is kept for negative verdicts: a job whose arrays do not fit
    # in memory is a capacity error, with numpy's text or a fixed one
    for message, shown in (("Unable to allocate 583. MiB", "Unable to allocate 583. MiB"),
                           ("", "out of memory")):
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr("syzcheck.npchecker.build_slice", out_of_memory)
        code, out, err = run(capsys, "check-np", "-n", "2", "-d", "3", "-p", "7")
        assert (code, out, err) == (2, "", f"capacity error: {shown}\n")


def test_store_env_and_flag(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    flag_dir = tmp_path / "from-flag"
    monkeypatch.setenv("SYZCHECK_STORE", str(env_dir))
    code, _, _ = run(capsys, "check-np", "-n", "1", "-d", "2", "-p", "2")
    assert code == 0
    assert (env_dir / "betti-n1-d2.jsonl").exists()
    code, _, _ = run(capsys, "check-np", "-n", "1", "-d", "3", "-p", "2",
                     "--store", str(flag_dir))
    assert (flag_dir / "betti-n1-d3.jsonl").exists()
    assert not (env_dir / "betti-n1-d3.jsonl").exists()


@pytest.mark.parametrize("record", ['{"b": [4, 0], "j": 0}', "[1,2]",
                                    '{"b": [4, 0], "j": 0, "value": "1", "certified": true}',
                                    # JSON's own types: true is no integer, 1 no boolean
                                    '{"b": [4, 0], "j": 0, "value": true, "certified": true}',
                                    '{"b": [4, 0], "j": false, "value": 0, "certified": true}',
                                    '{"b": [4, true], "j": 0, "value": 0, "certified": true}',
                                    '{"b": [4, 0], "j": 0, "value": 1.0, "certified": true}',
                                    '{"b": [4, 0], "j": 0, "value": 0, "certified": 1}'])
def test_malformed_store_record_exits_2(capsys, tmp_path, record):
    # whole JSON that is not a record is no torn tail: exit 2 naming the
    # file and line, never a traceback or exit 1 (a negative verdict)
    (tmp_path / "betti-n1-d2.jsonl").write_text(record + "\n")
    code, out, err = run(capsys, "check-np", "-n", "1", "-d", "2", "-p", "2",
                         "--store", str(tmp_path))
    assert (code, out) == (2, "")
    assert "betti-n1-d2.jsonl line 1 is not a store record" in err


@pytest.mark.parametrize("command", [
    ["check-np", "-n", "1", "-d", "2", "-p", "2"],
    ["cross-validate", "-n", "1", "-d", "2", "-p", "1", "-q", "1"],
    ["bench", "-n", "1", "-d", "2", "-p", "2"],
])
def test_store_that_cannot_be_a_directory_exits_2(capsys, tmp_path, monkeypatch, command):
    # a file, or a path under one, is a usage error (exit 2) naming the
    # path, never a traceback that exits 1 like a negative verdict
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    for path in (blocker, blocker / "store"):
        code, out, err = run(capsys, *command, "--store", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(path) in err
    monkeypatch.setenv("SYZCHECK_STORE", str(blocker))
    code, out, err = run(capsys, *command)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(blocker) in err


def test_unreadable_values_file_exits_2(capsys, tmp_path):
    # an OS error on the values file is a file error (exit 2) naming the
    # path, never a traceback that exits 1 like a negative verdict
    values = tmp_path / "betti-n1-d1.jsonl"
    values.mkdir()
    code, out, err = run(capsys, "check-np", "-n", "1", "-d", "1", "-p", "2",
                         "--store", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(values) in err


@pytest.mark.parametrize("command", [
    ["points", "-n", "20", "-d", "20"],
    ["check-np", "-n", "20", "-d", "20", "-p", "2"],
    ["koszul", "-n", "20", "-d", "20", "-p", "1", "-q", "1"],
    ["schur", "-p", "1", "-q", "1", "-d", "20", "--vdim", "21"],
    ["points", "-n", "1000000000", "-d", "1000000000"],
])
def test_too_many_points_or_monomials_exits_2_at_once(capsys, command):
    # C(40, 20), about 1.4e11 points or monomials, is counted before any is
    # enumerated: a capacity error, where these commands used to hang.
    # check-np's window guard needs only n and d, and speaks first
    start = time.perf_counter()
    code, out, err = run(capsys, *command)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    refusal = "orbit representatives" if command[0] == "check-np" else "exceed"
    assert err.startswith("capacity error: ") and refusal in err


@pytest.mark.parametrize("command", [
    ["check-np", "-n", "30000", "-d", "1", "-p", "2"],
    ["koszul", "-n", "30000", "-d", "1", "-p", "1", "-q", "1"],
    ["schur", "-p", "1", "-q", "1", "-d", "1", "--vdim", "30001"],
    ["koszul", "-n", "900", "-d", "1", "-p", "1", "-q", "1"],
])
def test_tables_of_too_many_entries_exit_2_at_once(command):
    # few enough points, monomials and wedge rows, but each holds one entry
    # per coordinate: 30001 x 30001 monomials, 405,450 two-subsets of 901
    # monomials times 901 sums. Under a 4 GiB address space, a table built
    # before its guard runs is a MemoryError (exit 1), not a hog of the host
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", "import resource, sys, time; "
                           "resource.setrlimit(resource.RLIMIT_AS, (1 << 32, 1 << 32)); "
                           "from syzcheck.cli import main; start = time.perf_counter(); "
                           "code = main(sys.argv[1:]); "
                           "print(time.perf_counter() - start); sys.exit(code)", *command],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, (command, proc.stderr)
    assert proc.stderr.startswith("capacity error: "), proc.stderr
    assert float(proc.stdout) < 1.0, command


def test_bench_timing_on_stderr_only(capsys):
    code1, out1, err1 = run(capsys, "bench", "-n", "1", "-d", "2", "-p", "2")
    code2, out2, err2 = run(capsys, "bench", "-n", "1", "-d", "2", "-p", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "bench:" in err1 and "jobs in" in err1
    assert "bench:" not in out1

