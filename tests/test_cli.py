import json

import pytest

from sdskit import catalog, cli, hadamard, sds

GOOD_CORPUS = """\
entry demo-7
params v=7 k=2,2,2 lambda=1
status verified
provenance worked example
block 0 1
block 0 2
block 0 3
end
"""

BAD_CORPUS = GOOD_CORPUS.replace("block 0 3", "block 0 5")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_v7(self, capsys):
        code, out, _ = run(capsys, "params", "7")
        assert code == cli.EXIT_OK
        assert out.count("\n") == 2  # (3,3,1) and (2,2,2)

    def test_v239_json(self, capsys):
        code, out, _ = run(capsys, "params", "239", "--format", "json")
        assert code == cli.EXIT_OK
        rows = json.loads(out)
        assert {"v": 239, "k": [119, 112, 106], "lambda": 158, "n": 179} in rows

    def test_bad_modulus(self, capsys):
        code, _, err = run(capsys, "params", "12")
        assert code == cli.EXIT_BAD_INPUT
        assert "error" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["params"])
        assert exc.value.code == cli.EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == cli.EXIT_USAGE


class TestVerify:
    def test_catalog_id_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "appx-11-4-4-3")
        assert code == cli.EXIT_OK
        assert "appx-11-4-4-3: PASS lambda=3" in out

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "nope")
        assert code == cli.EXIT_BAD_INPUT
        assert err == "error: no catalog entry with id 'nope'\n"

    def test_file_pass(self, capsys, tmp_path):
        f = tmp_path / "good.txt"
        f.write_text(GOOD_CORPUS)
        code, out, _ = run(capsys, "verify", "--file", str(f))
        assert code == cli.EXIT_OK
        assert "PASS" in out

    def test_tampered_file_fails(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(BAD_CORPUS)
        code, out, _ = run(capsys, "verify", "--file", str(f))
        assert code == cli.EXIT_VERIFY_FAIL
        assert "FAIL" in out

    def test_wrong_lambda_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--id", "appx-11-4-4-3", "--lambda", "4"
        )
        assert code == cli.EXIT_VERIFY_FAIL
        assert "worst deviation" in out

    def test_wrong_lambda_names_residues(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--id", "appx-11-4-4-3", "--lambda", "4"
        )
        assert code == cli.EXIT_VERIFY_FAIL
        assert out == (
            "appx-11-4-4-3: FAIL lambda=4 worst deviation 1; 10 residues off "
            "lambda, first [1, 2, 3, 4, 5]; count values [3]\n"
        )

    def test_tampered_file_names_residues(self, capsys, tmp_path):
        # differences of {0,1}, {0,2}, {0,5} mod 7 hit 2 and 5 twice, 3 and
        # 4 never
        f = tmp_path / "bad.txt"
        f.write_text(BAD_CORPUS)
        code, out, _ = run(capsys, "verify", "--file", str(f))
        assert code == cli.EXIT_VERIFY_FAIL
        assert out == (
            "demo-7: FAIL (entry demo-7: verification failed at lambda=1 "
            "(worst deviation 1; 4 residues off lambda, first [2, 3, 4, 5]))\n"
        )

    def test_compose_entry_alone(self, capsys):
        # the compose target is not named on the command line
        code, out, _ = run(capsys, "verify", "--id", "appx-59-29-28-22")
        assert code == cli.EXIT_OK
        assert "appx-59-29-28-22: PASS lambda=35" in out

    def test_verifies_each_entry_once(self, capsys, monkeypatch):
        calls = []
        real = sds.verify_sds
        monkeypatch.setattr(
            sds, "verify_sds", lambda f, lam: calls.append(lam) or real(f, lam)
        )
        code, _, _ = run(capsys, "verify", "--id", "appx-11-4-4-3")
        assert code == cli.EXIT_OK
        assert calls == [3]

    @pytest.mark.parametrize(
        "argv", [["verify", "--file"], ["hadamard", "--file"], ["equiv"]]
    )
    def test_non_ascii_file(self, capsys, tmp_path, argv):
        f = tmp_path / "latin1.txt"
        f.write_bytes(GOOD_CORPUS.replace("worked", "caf\xe9").encode("latin-1"))
        code, _, err = run(capsys, *argv, str(f))
        assert code == cli.EXIT_BAD_INPUT
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "params,orbit,reps",
        [
            ("v=7 k=3 lambda=1", "h=0 q=3", "1"),  # 0 is not a unit
            ("v=7 k=3 lambda=1", "h=2 q=3", "1 2"),  # one orbit named twice
            ("v=7 k=3 lambda=1", "h=1 q=3", "1"),  # h of order 1
            ("v=9 k=1 lambda=0", "h=2 q=3", "0"),  # composite modulus
        ],
        ids=["h0", "orbit-twice", "h1", "composite-v"],
    )
    def test_bad_orbit_data_fails(self, capsys, tmp_path, params, orbit, reps):
        f = tmp_path / "orbit.txt"
        f.write_text(
            f"entry bad-orbit\nparams {params}\nstatus verified\n"
            f"provenance test\norbit {orbit}\nreps {reps}\nend\n"
        )
        code, out, _ = run(capsys, "verify", "--file", str(f))
        assert code == cli.EXIT_VERIFY_FAIL
        assert out.startswith("bad-orbit: FAIL (entry bad-orbit: ")

    @pytest.mark.parametrize(
        "data",
        [
            "block 1 9 -3",  # read as {1, 2, 4} mod 7
            "block 1 1 2 4",  # a repeated residue hid the declared size
            "orbit h=2 q=3\nreps 8",  # named the orbit of 1
        ],
        ids=["out-of-range-block", "repeated-residue", "out-of-range-reps"],
    )
    def test_residues_read_as_written(self, capsys, tmp_path, data):
        f = tmp_path / "fano.txt"
        f.write_text(
            "entry fano\nparams v=7 k=3 lambda=1\nstatus verified\n"
            f"provenance test\n{data}\nend\n"
        )
        code, out, _ = run(capsys, "verify", "--file", str(f))
        assert code == cli.EXIT_VERIFY_FAIL
        assert out.startswith("fano: FAIL (entry fano: ")

    def test_open_entry_skipped(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "open-107-49-48-46")
        assert code == cli.EXIT_OK
        assert "SKIP" in out

    def test_open_entry_with_data_fails(self, capsys, tmp_path):
        # load_catalog, hadamard --file and equiv reject this entry too
        f = tmp_path / "open.txt"
        f.write_text(
            "entry x\nparams v=7 k=3 lambda=1\nstatus open\n"
            "provenance test\nblock 1 2 4\nend\n"
        )
        code, out, _ = run(capsys, "verify", "--file", str(f))
        assert code == cli.EXIT_VERIFY_FAIL
        assert out == "x: FAIL (entry x: status open must not carry data)\n"


class TestSearch:
    def test_finds_and_appends(self, capsys, tmp_path):
        out_file = tmp_path / "found.txt"
        code, out, _ = run(
            capsys, "search", "19", "9,7,6", "--q", "3", "--seed", "1",
            "--out", str(out_file),
        )
        assert code == cli.EXIT_OK
        assert "found " in out
        from sdskit import catalog

        (e,) = catalog.load_catalog(out_file.read_text(), verify=True)
        assert e.params.sizes == (9, 7, 6)

    def test_second_run_continues_ids(self, capsys, tmp_path):
        out_file = tmp_path / "found.txt"
        for _ in range(2):
            code, _, _ = run(
                capsys, "search", "19", "9,7,6", "--q", "3", "--seed", "1",
                "--out", str(out_file),
            )
            assert code == cli.EXIT_OK
        code, out, _ = run(capsys, "verify", "--file", str(out_file))
        assert code == cli.EXIT_OK
        assert out.splitlines() == [
            "found-19-q3-s1-1: PASS lambda=8",
            "found-19-q3-s1-2: PASS lambda=8",
        ]

    def test_out_file_without_final_newline(self, capsys, tmp_path):
        out_file = tmp_path / "found.txt"
        out_file.write_text(GOOD_CORPUS.rstrip("\n"))
        code, _, _ = run(
            capsys, "search", "19", "9,7,6", "--q", "3", "--seed", "1",
            "--out", str(out_file),
        )
        assert code == cli.EXIT_OK
        code, out, _ = run(capsys, "verify", "--file", str(out_file))
        assert code == cli.EXIT_OK
        assert out.count("PASS") == 2

    def test_out_in_missing_directory(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "f.txt"
        code, out, err = run(
            capsys, "search", "19", "9,7,6", "--q", "3", "--seed", "1",
            "--out", str(out_file),
        )
        assert code == cli.EXIT_BAD_INPUT
        assert err.startswith("error: ")
        assert "Traceback" not in err
        # --out is opened before the search, so nothing is found and lost
        assert "found " not in out

    @pytest.mark.parametrize("skew", [False, True])
    @pytest.mark.parametrize("flag, value", [
        ("--want", "0"), ("--budget", "0"), ("--budget", "-3"),
        ("--workers", "0"), ("--workers", "-2"),
    ])
    def test_non_positive_counts(self, capsys, flag, value, skew):
        target = ["43", "21,21,21,15", "--q", "7", "--skew-gs"] if skew else [
            "19", "9,7,6", "--q", "3"]
        code, out, err = run(
            capsys, "search", *target, "--seed", "1", flag, value
        )
        assert code == cli.EXIT_BAD_INPUT
        assert err == f"error: {flag[2:]} must be at least 1, not {value}\n"
        assert out == ""

    def test_unparsable_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "found.txt"
        out_file.write_text("not a corpus\n")
        code, _, err = run(
            capsys, "search", "19", "9,7,6", "--q", "3", "--seed", "1",
            "--out", str(out_file),
        )
        assert code == cli.EXIT_BAD_INPUT
        assert err.startswith("error: ")
        assert out_file.read_text() == "not a corpus\n"

    def test_infeasible(self, capsys):
        code, out, err = run(
            capsys, "search", "107", "49,48,46", "--q", "53", "--seed", "0"
        )
        assert code == cli.EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error: infeasible for the orbit method: ")
        assert err.count("divides neither") == 3

    def test_q_not_dividing_group_order(self, capsys):
        code, _, err = run(
            capsys, "search", "107", "49,48,46", "--q", "3", "--seed", "0"
        )
        assert code == cli.EXIT_BAD_INPUT
        assert "does not divide" in err

    def test_bad_sizes(self, capsys):
        code, _, err = run(capsys, "search", "19", "9,7,x", "--q", "3")
        assert code == cli.EXIT_BAD_INPUT
        assert err.startswith("error: ")

    def test_no_integral_lambda(self, capsys):
        code, _, err = run(capsys, "search", "13", "3,2", "--q", "3")
        assert code == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize("argv", [
        ["19", "9,7,x", "--q", "3"],
        ["19", "9,7,6", "--q", "4"],
        ["21", "9,7,6", "--q", "3"],
        ["19", "8,9,7,7", "--q", "3", "--skew-gs"],
    ], ids=["sizes", "q-not-prime", "no-lambda", "skew-k0"])
    def test_rejected_input_prints_no_seed(self, capsys, argv):
        # without --seed, input that is rejected leaves stdout empty
        code, out, err = run(capsys, "search", *argv)
        assert code == cli.EXIT_BAD_INPUT
        assert err.startswith("error: ")
        assert out == ""

    def test_rejected_input_creates_no_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "found.txt"
        code, out, _ = run(
            capsys, "search", "19", "9,7,x", "--q", "3", "--out", str(out_file)
        )
        assert code == cli.EXIT_BAD_INPUT
        assert out == ""
        assert not out_file.exists()

    def test_seed_printed_when_omitted(self, capsys):
        code, out, _ = run(
            capsys, "search", "19", "9,7,6", "--q", "3", "--budget", "1000"
        )
        assert code == cli.EXIT_OK
        assert out.startswith("seed: ")

    def test_skew_gs(self, capsys):
        code, out, _ = run(
            capsys, "search", "19", "9,9,7,6", "--q", "3", "--seed", "1",
            "--skew-gs",
        )
        assert code == cli.EXIT_OK
        assert "found " in out


class TestIntegers:
    """Every integer on the command line is ASCII digits with an optional
    leading '-', as in corpus files: int() alone would take 1_9 and +6."""

    SEARCH = ["search", "19", "9,7,6", "--q", "3", "--seed", "1"]

    @pytest.mark.parametrize("argv", [
        ["params", "1_9"],
        ["params", "+7"],
        ["params", "\u0667"],  # ARABIC-INDIC DIGIT SEVEN
        ["search", "1_9", "9,7,6", "--q", "3", "--seed", "1"],
        ["search", "19", "9,7,6", "--q", "+3", "--seed", "1"],
        SEARCH + ["--budget", "1_000"],
        ["search", "19", "9,7,6", "--q", "3", "--seed", "+1"],
        SEARCH + ["--workers", " 2"],
        SEARCH + ["--want", "1_0"],
        ["verify", "--id", "appx-11-4-4-3", "--lambda", "+4"],
        ["params", "-"],
        ["params", "5-3"],
        ["search", "19", "9,7,6", "--q", "3", "--seed", ""],
        ["search", "19", "9,7,6", "--q=--3", "--seed", "1"],
    ], ids=["params-underscore", "params-plus", "params-arabic-indic", "v", "q",
            "budget", "seed", "workers-space", "want", "lambda", "params-minus",
            "params-inner-minus", "seed-empty", "q-double-minus"])
    def test_option_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "not decimal integers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sizes", ["9,7,+6", "9,7_0,6", "9, 7,6", "9,7,\u0666",
                                       ",", "9,-,6", "9,5-3,6", "9,--5,6"])
    def test_sizes_token_is_bad_input(self, capsys, sizes):
        code, out, err = run(capsys, "search", "19", sizes, "--q", "3", "--seed", "1")
        assert code == cli.EXIT_BAD_INPUT
        assert err.startswith("error: not decimal integers")
        assert out == ""


class TestHadamard:
    def test_section4_entry(self, capsys, tmp_path):
        out_file = tmp_path / "h1324.txt"
        code, out, _ = run(
            capsys, "hadamard", "--id", "gs1324-family1", "--out", str(out_file)
        )
        assert code == cli.EXIT_OK
        assert "PASS skew-Hadamard of order 1324" in out
        m = hadamard.read_matrix(out_file)
        assert m.n == 1324

    def test_section3_entry_with_paley_todd(self, capsys):
        code, out, _ = run(
            capsys, "hadamard", "--id", "gs956-family1", "--paley-todd"
        )
        assert code == cli.EXIT_OK
        assert "PASS skew-Hadamard of order 956" in out

    def test_three_block_entry_fails(self, capsys):
        code, out, _ = run(capsys, "hadamard", "--id", "appx-11-4-4-3")
        assert code == cli.EXIT_HADAMARD_FAIL
        assert "need 4 blocks" in out

    def test_non_skew_first_block_fails(self, capsys, tmp_path):
        f = tmp_path / "fam.txt"
        f.write_text(
            "entry flat\n"
            "params v=3 k=2,1,1,0 lambda=1\n"
            "status verified\n"
            "provenance test\n"
            "block 1 2\nblock 0\nblock 0\nblock\n"
            "end\n"
        )
        code, out, _ = run(capsys, "hadamard", "--file", str(f))
        assert code == cli.EXIT_HADAMARD_FAIL
        assert "FAIL" in out

    def test_open_entry_in_file_rejected(self, capsys, tmp_path):
        f = tmp_path / "open.txt"
        f.write_text(
            "entry unknown\n"
            "params v=7 k=3,3,1 lambda=2\n"
            "status open\n"
            "provenance test\n"
            "end\n"
        )
        code, _, err = run(capsys, "hadamard", "--file", str(f))
        assert code == cli.EXIT_BAD_INPUT
        assert "carries no block data" in err

    def test_out_takes_one_family(self, capsys, tmp_path):
        # both matrices used to be written to one file, the last one kept
        corpus = tmp_path / "two.txt"
        entries = catalog.load_default(verify=False)
        corpus.write_text(
            catalog.emit_catalog(
                [catalog.entry_by_id(entries, f"gs956-family{k}") for k in (1, 2)]
            )
        )
        out_file = tmp_path / "h.txt"
        for named in (
            ["--id", "gs956-family1", "--id", "gs956-family2"],
            ["--file", str(corpus)],
        ):
            code, out, err = run(
                capsys, "hadamard", *named, "--paley-todd", "--out", str(out_file)
            )
            assert code == cli.EXIT_BAD_INPUT
            assert out == ""
            assert err == "error: --out takes one family, not 2\n"
            assert not out_file.exists()


def _one_entry_corpus(path, eid):
    entries = catalog.load_default(verify=False)
    path.write_text(catalog.emit_catalog([catalog.entry_by_id(entries, eid)]))


class TestNamedFiles:
    """--file always names a file; an equiv token is a file only when it
    contains "/" or ends in ".txt"."""

    def test_hadamard_file_without_slash(self, capsys, tmp_path, monkeypatch):
        _one_entry_corpus(tmp_path / "mycorpus", "gs1324-family1")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "hadamard", "--file", "mycorpus")
        assert code == cli.EXIT_OK
        assert out == (
            "mycorpus:gs1324-family1: PASS skew-Hadamard of order 1324\n"
        )

    def test_equiv_relative_file_and_id(self, capsys, tmp_path, monkeypatch):
        _one_entry_corpus(tmp_path / "mycorpus", "gs1324-family1")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "equiv", "./mycorpus", "gs1324-family2")
        assert code == cli.EXIT_OK
        assert out == (
            "./mycorpus:gs1324-family1 vs gs1324-family2: NONEQUIVALENT\n"
        )

    def test_equiv_bare_name_is_an_id(self, capsys, tmp_path, monkeypatch):
        _one_entry_corpus(tmp_path / "mycorpus", "gs1324-family1")
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "equiv", "mycorpus")
        assert code == cli.EXIT_BAD_INPUT
        assert err.startswith("error: ") and "mycorpus" in err


class TestEquiv:
    def test_pairwise_output(self, capsys):
        code, out, _ = run(
            capsys, "equiv", "gs956-family1", "gs956-family2", "gs956-family3"
        )
        assert code == cli.EXIT_OK
        assert out.count("NONEQUIVALENT") == 3

    def test_equivalent_copies(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text(
            "entry a\n"
            "params v=7 k=3 lambda=1\n"
            "status verified\nprovenance test\n"
            "block 0 1 3\nend\n"
            "entry b\n"
            "params v=7 k=3 lambda=1\n"
            "status verified\nprovenance test\n"
            "block 0 2 6\nend\n"
        )
        code, out, _ = run(capsys, "equiv", str(f))
        assert code == cli.EXIT_OK
        assert "EQUIVALENT" in out and "NONEQUIVALENT" not in out


class TestTable1:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == cli.EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("v=")]
        assert len(lines) == 36
        assert "MISMATCH" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "json")
        assert code == cli.EXIT_OK
        rows = json.loads(out)
        assert len(rows) == 36
        assert sum(r["status"] == "yes" for r in rows) == 28
