import pytest

from sdskit import catalog, sds


class TestLoadDefault:
    def test_counts_by_status(self, entries):
        by_status = {}
        for e in entries:
            by_status[e.status] = by_status.get(e.status, 0) + 1
        assert by_status == {"verified": 34, "open": 8, "external": 4}

    def test_counts_by_encoding(self, entries):
        enc = {}
        for e in entries:
            enc[e.encoding] = enc.get(e.encoding, 0) + 1
        assert enc == {"blocks": 16, "orbit": 17, "compose": 1, "none": 12}

    def test_every_verified_entry_has_family(self, entries):
        for e in entries:
            if e.status == "verified":
                assert e.family is not None
                assert sds.verify_sds(e.family, e.params.lam).ok
            else:
                assert e.family is None

    def test_three_block_yes_rows_cover_table(self, entries):
        covered = {
            (e.params.v, e.params.sizes)
            for e in entries
            if len(e.params.sizes) == 3
            and e.status in ("verified", "external")
            and e.params.v <= 131
        }
        assert len(covered) == 28

    def test_entry_by_id(self, entries):
        e = catalog.entry_by_id(entries, "appx-11-4-4-3")
        assert e.params == sds.ParameterSet(11, (4, 4, 3), 3)
        with pytest.raises(KeyError):
            catalog.entry_by_id(entries, "no-such-id")

    def test_compose_entry(self, entries):
        e = catalog.entry_by_id(entries, "appx-59-29-28-22")
        assert e.encoding == "compose"
        assert e.family.sizes == (29, 28, 22)

    def test_round_trip(self, entries):
        text = catalog.emit_catalog(entries)
        reloaded = catalog.load_catalog(text, verify=True)
        assert len(reloaded) == len(entries)
        for a, b in zip(entries, reloaded):
            assert (a.id, a.params, a.status, a.blocks, a.orbit, a.compose) == (
                b.id, b.params, b.status, b.blocks, b.orbit, b.compose
            )


MINIMAL = """\
entry demo-7
params v=7 k=2,2,2 lambda=1
status verified
provenance worked example
block 0 1
block 0 2
block 0 3
end
"""


class TestParsing:
    def test_minimal_entry(self):
        (e,) = catalog.load_catalog(MINIMAL)
        assert e.id == "demo-7"
        assert e.family.member_lists() == ((0, 1), (0, 2), (0, 3))

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + MINIMAL.replace("status", "# note\nstatus")
        (e,) = catalog.load_catalog(text)
        assert e.id == "demo-7"

    def test_parse_error_carries_line_number(self):
        text = MINIMAL.replace("block 0 2", "block 0 x")
        with pytest.raises(catalog.CatalogParseError) as exc:
            catalog.load_catalog(text)
        assert exc.value.lineno == 6
        assert "line 6" in str(exc.value)

    def test_unknown_directive(self):
        with pytest.raises(catalog.CatalogParseError):
            catalog.load_catalog(MINIMAL.replace("provenance", "providence"))

    def test_duplicate_id(self):
        with pytest.raises(catalog.CatalogParseError):
            catalog.load_catalog(MINIMAL + MINIMAL)

    def test_unterminated_entry(self):
        with pytest.raises(catalog.CatalogParseError):
            catalog.load_catalog(MINIMAL.replace("end\n", ""))

    def test_missing_required_field(self):
        with pytest.raises(catalog.CatalogParseError):
            catalog.load_catalog(MINIMAL.replace("status verified\n", ""))

    def test_bad_status(self):
        with pytest.raises(catalog.CatalogParseError):
            catalog.load_catalog(MINIMAL.replace("verified", "maybe"))

    def test_compose_syntax(self):
        text = MINIMAL.replace(
            "block 0 1\nblock 0 2\nblock 0 3\n", "compose quadratic demo\n"
        )
        with pytest.raises(catalog.CatalogParseError):
            catalog.load_catalog(text)

    def test_reps_before_orbit(self):
        text = MINIMAL.replace(
            "block 0 1\nblock 0 2\nblock 0 3\n", "reps 1 2\n"
        )
        with pytest.raises(catalog.CatalogParseError):
            catalog.load_catalog(text)


class TestIntegrity:
    def test_tampered_block_fails_naming_entry(self):
        text = MINIMAL.replace("block 0 3", "block 0 5")
        with pytest.raises(catalog.CatalogIntegrityError) as exc:
            catalog.load_catalog(text)
        assert "demo-7" in str(exc.value)

    def test_tampering_passes_without_verification(self):
        text = MINIMAL.replace("block 0 3", "block 0 5")
        (e,) = catalog.load_catalog(text, verify=False)
        assert e.family is None

    def test_open_entry_must_not_carry_data(self):
        text = MINIMAL.replace("status verified", "status open")
        with pytest.raises(catalog.CatalogIntegrityError):
            catalog.load_catalog(text)

    def test_verified_entry_needs_data(self):
        text = MINIMAL.replace(
            "block 0 1\nblock 0 2\nblock 0 3\n", ""
        )
        with pytest.raises(catalog.CatalogIntegrityError):
            catalog.load_catalog(text)

    def test_wrong_subgroup_order_detected(self):
        text = (
            "entry bad-orbit\n"
            "params v=7 k=3,3,1 lambda=2\n"
            "status verified\n"
            "provenance test\n"
            "orbit h=2 q=5\n"
            "reps 1\nreps 3\nreps 0\n"
            "end\n"
        )
        with pytest.raises(catalog.CatalogIntegrityError):
            catalog.load_catalog(text)

    def test_compose_target_must_precede(self):
        text = (
            "entry needs-base\n"
            "params v=7 k=3,2,2,2 lambda=2\n"
            "status verified\n"
            "provenance test\n"
            "compose paley_todd absent\n"
            "end\n"
        )
        with pytest.raises(catalog.CatalogIntegrityError):
            catalog.load_catalog(text)
        # a target that follows the entry is not resolved either
        later = text.replace("absent", "demo-7") + MINIMAL
        entries = catalog.load_catalog(later, verify=False)
        with pytest.raises(catalog.CatalogIntegrityError):
            catalog.materialize(entries[0], entries)

    def test_materialize_builds_compose_target(self):
        text = MINIMAL + (
            "entry wide\n"
            "params v=7 k=3,2,2,2 lambda=2\n"
            "status verified\n"
            "provenance test\n"
            "compose paley_todd demo-7\n"
            "end\n"
        )
        base, wide = catalog.load_catalog(text, verify=False)
        fam = catalog.materialize(wide, [base, wide])
        assert fam is wide.family and fam.sizes == (3, 2, 2, 2)
        assert base.family.member_lists() == ((0, 1), (0, 2), (0, 3))


class TestTable1:
    def test_matches_expected(self, entries):
        rows = catalog.table1_report(entries)
        assert catalog.table1_matches_expected(rows)

    def test_row_count_and_split(self, entries):
        rows = catalog.table1_report(entries)
        assert len(rows) == 36
        assert sum(r.status == "yes" for r in rows) == 28
        assert sum(r.status == "?" for r in rows) == 8

    def test_specific_rows(self, entries):
        rows = {(r.v, r.sizes): r for r in catalog.table1_report(entries)}
        assert rows[(71, (34, 32, 28))].status == "?"
        assert rows[(71, (31, 31, 30))].status == "yes"
        r127 = rows[(127, (57, 57, 57))]
        assert r127.status == "yes" and r127.source == "external"
        assert rows[(131, (61, 61, 56))].status == "yes"
        assert rows[(59, (29, 28, 22))].source == "compose"

    def test_mismatch_detected(self, entries):
        rows = catalog.table1_report(entries)
        broken = list(rows)
        broken[0] = catalog.Table1Row(
            rows[0].v, rows[0].sizes, rows[0].lam, "?", "none"
        )
        assert not catalog.table1_matches_expected(broken)


ORBIT = """\
entry demo-orbit-7
params v=7 k=3,3 lambda=2
status verified
provenance two copies of the quadratic residues
orbit h=2 q=3
reps 1
reps 1
end
"""


class TestDecimalTokens:
    def test_non_decimal_integers_name_their_line(self):
        # int() reads each replacement as the value it replaces, so the
        # entry would load unchanged
        assert catalog.load_catalog(ORBIT)[0].family.member_lists() == (
            (1, 2, 4), (1, 2, 4)
        )
        assert catalog.load_catalog(MINIMAL)[0].id == "demo-7"
        cases = [
            (MINIMAL, "v=7", "v=+7", 2),
            (MINIMAL, "k=2,2,2", "k=2,0_2,2", 2),
            (MINIMAL, "lambda=1", "lambda=١", 2),
            (MINIMAL, "block 0 2", "block 0 +2", 6),
            (MINIMAL, "block 0 3", "block 0 0_3", 7),
            (ORBIT, "h=2", "h=+2", 5),
            (ORBIT, "reps 1\nend", "reps 0_1\nend", 7),
            (MINIMAL, "k=2,2,2", "k=2,,2", 2),
            (MINIMAL, "lambda=1", "lambda=-", 2),
            (MINIMAL, "block 0 2", "block 0 5-3", 6),
            (ORBIT, "q=3", "q=--3", 5),
        ]
        for text, old, new, lineno in cases:
            with pytest.raises(catalog.CatalogParseError) as exc:
                catalog.load_catalog(text.replace(old, new))
            assert exc.value.lineno == lineno, new

    @pytest.mark.parametrize("token", ["", "-", "5-3", "--5"])
    def test_empty_and_misplaced_signs_are_named(self, token):
        # int() would raise its own "invalid literal" message
        with pytest.raises(ValueError, match="^not decimal integers: "):
            catalog.decimals(["1", token])
        assert catalog.decimals(["-5", "0", "12"]) == (-5, 0, 12)


ONE_ORBIT = """\
entry once
params v=7 k=3 lambda=1
status verified
provenance quadratic residues
orbit h=2 q=3
reps 1
end
"""


@pytest.mark.parametrize("old, new, lineno", [
    ("status verified\n", "status verified\nstatus open\n", 4),
    ("provenance quadratic residues\n", "provenance a\nprovenance b\n", 5),
    ("params v=7 k=3 lambda=1\n", "params v=7 k=3 lambda=1\nparams v=7 k=3 lambda=1\n", 3),
    ("reps 1\n", "reps 1\norbit h=2 q=3\nreps 3\n", 7),
    ("orbit h=2 q=3\nreps 1\n", "compose paley_todd a\ncompose paley_todd b\n", 6),
    ("lambda=1", "lambda=1 foo", 2),
    ("lambda=1", "lambda=1 x=5", 2),
    ("lambda=1", "lambda=1 v=7", 2),
    ("q=3", "q=3 h=4", 5),
])
def test_singleton_lines_and_exact_keys(old, new, lineno):
    # a second singleton line, or a params/orbit line with a stray,
    # unknown or repeated token, would otherwise pass or be overridden
    assert catalog.load_catalog(ONE_ORBIT)[0].family.member_lists() == ((1, 2, 4),)
    with pytest.raises(catalog.CatalogParseError) as exc:
        catalog.load_catalog(ONE_ORBIT.replace(old, new), verify=False)
    assert exc.value.lineno == lineno
