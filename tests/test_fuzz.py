"""Hostile input: generated corpus text, matrix files and CLI arguments must
end in the package's named errors and documented exit codes, never a
traceback."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from sdskit import catalog, cli, hadamard

IDS = ("a", "b", "fam")
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)
# small parameter sets, so that random data often verifies; v <= 60 because
# loading verifies every complete entry, at a cost that grows with v
PARAMS = [
    (3, (2, 1, 1, 0), 1), (5, (2, 2), 1), (7, (3,), 1), (7, (2, 2, 2), 1),
    (7, (3, 3, 1), 2), (7, (3, 3, 3, 1), 3), (11, (5,), 2), (13, (4,), 1),
    (19, (9, 7, 6), 8),
]
small = st.integers(min_value=-2, max_value=62)


def _words(xs):
    return " ".join(map(str, xs))


params = st.one_of(
    st.sampled_from(PARAMS),
    st.sampled_from(PARAMS),
    st.tuples(
        st.integers(-1, 60),
        st.lists(st.integers(-1, 60), min_size=1, max_size=4),
        st.integers(-1, 60),
    ),
)
stray_line = st.one_of(
    st.sampled_from(IDS).map("entry {}".format),
    st.sampled_from(["status verified", "status open", "status external",
                     "status maybe", "provenance fuzz", "end", "", "# note",
                     "entry", "params v=7", "orbit h=2", "compose x"]),
    st.builds("block {}".format, st.lists(small, max_size=6).map(_words)),
    st.builds("reps {}".format, st.lists(small, max_size=6).map(_words)),
    st.text(max_size=12),
)


@st.composite
def entry_lines(draw):
    """A whole entry: declared params, a status and data in one encoding,
    sometimes in none or two, or with a stray line spliced in."""
    v, sizes, lam = draw(params)
    residue = st.integers(-1, max(v, 0))
    exact = 0 < v and all(0 <= k <= v for k in sizes) and draw(st.booleans())
    lines = [
        f"entry {draw(st.sampled_from(IDS))}",
        f"params v={v} k={','.join(map(str, sizes))} lambda={lam}",
        draw(st.sampled_from(["status verified"] * 3 + ["status open"])),
        "provenance fuzz",
    ]
    encodings = draw(st.sampled_from(
        [["block"]] * 3 + [["orbit"], ["compose"], [], ["block", "orbit"]]
    ))
    for encoding in encodings:
        if encoding == "block":
            for k in sizes:
                members = draw(
                    st.sets(st.integers(0, v - 1), min_size=k, max_size=k)
                    if exact
                    else st.lists(residue, max_size=max(k, 0) + 1)
                )
                lines.append(f"block {_words(sorted(members))}".rstrip())
        elif encoding == "orbit":
            lines.append(f"orbit h={draw(residue)} q={draw(st.integers(-1, 7))}")
            for _ in sizes:
                reps = draw(st.lists(residue, max_size=4))
                lines.append(f"reps {_words(reps)}".rstrip())
        else:
            lines.append(f"compose paley_todd {draw(st.sampled_from(IDS))}")
    lines.append("end")
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(stray_line))
    return lines


corpus_text = st.lists(
    st.one_of(entry_lines(), entry_lines(), st.lists(stray_line, max_size=3)),
    max_size=3,
).map(lambda chunks: "\n".join(line for chunk in chunks for line in chunk))


def _main(argv):
    """Exit code of cli.main, with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            assert exc.code == cli.EXIT_USAGE
            return exc.code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(corpus_text, st.booleans())
def test_load_catalog_raises_only_named_errors(text, verify):
    try:
        catalog.load_catalog(text, verify=verify)
    except (catalog.CatalogParseError, catalog.CatalogIntegrityError):
        pass


@FUZZ
@given(
    corpus_text,
    st.sampled_from([
        ["verify", "--file"],
        ["verify", "--lambda", "1", "--file"],
        ["hadamard", "--file"],
        ["hadamard", "--paley-todd", "--file"],
        ["equiv"],
        ["equiv", "appx-11-4-4-3", "open-107-49-48-46", "nope"],
    ]),
)
def test_cli_on_corpus_files(workdir, text, argv):
    f = workdir / "corpus.txt"
    f.write_text(text, encoding="utf-8")  # not always ASCII
    code = _main([*argv, str(f)])
    assert code in (cli.EXIT_OK, cli.EXIT_BAD_INPUT, cli.EXIT_VERIFY_FAIL,
                    cli.EXIT_HADAMARD_FAIL, cli.EXIT_USAGE)


@FUZZ
@given(corpus_text)
def test_verify_file_agrees_with_load_catalog(workdir, text):
    # verify --file accepts a file exactly when it is ASCII and
    # load_catalog verifies its text
    f = workdir / "corpus.txt"
    f.write_text(text, encoding="utf-8")
    try:
        catalog.load_catalog(text)
        loads = text.isascii()
    except (catalog.CatalogParseError, catalog.CatalogIntegrityError):
        loads = False
    assert (_main(["verify", "--file", str(f)]) == cli.EXIT_OK) == loads


matrix_text = st.tuples(
    st.one_of(st.integers(-2, 6).map(str), st.text(max_size=3)),
    st.lists(st.one_of(st.text("+-", max_size=6), st.text(max_size=6)), max_size=7),
).map(lambda t: "\n".join([t[0], *t[1]]))


@FUZZ
@given(matrix_text)
def test_read_matrix_raises_only_value_error(workdir, text):
    f = workdir / "matrix.txt"
    f.write_text(text, encoding="utf-8")
    try:
        m = hadamard.read_matrix(f)
    except ValueError:
        return
    assert m.n >= 1 and len(m.rows) == m.n


number = st.one_of(st.integers(-5, 60).map(str), st.text(max_size=4))


@FUZZ
@given(
    number,
    st.lists(number, min_size=1, max_size=4).map(",".join),
    number,
    st.lists(
        st.sampled_from(["--skew-gs", "--workers=0", "--workers=-1",
                         "--budget=-1", "--want=0", "--want=-2", "--seed=-3"]),
        max_size=3,
    ),
)
def test_cli_on_bad_search_arguments(v, sizes, q, extra):
    code = _main(["search", v, sizes, "--q", q, "--budget", "300",
                  "--seed", "0", *extra])
    assert code in (cli.EXIT_OK, cli.EXIT_BAD_INPUT, cli.EXIT_USAGE)


@FUZZ
@given(number, st.sampled_from([[], ["--format", "json"], ["--format", "x"]]))
def test_cli_on_bad_params_arguments(v, extra):
    code = _main(["params", v, *extra])
    assert code in (cli.EXIT_OK, cli.EXIT_BAD_INPUT, cli.EXIT_USAGE)
