import warnings

import numpy as np
import pytest

from uqagg import (
    FULL_SET,
    INTENSITY_SET,
    SPATIAL_SET,
    compute_features,
    parse_strategy,
    parse_strategy_list,
    validate_map,
)
from uqagg import aqa, ata, avg, bca, eds, ent, mor, plm, qfr
from uqagg.core import MapPass, SegmentationMask
from uqagg.errors import (
    DuplicateStrategy,
    InvalidParam,
    MaskRequired,
    NoForeground,
    PatchTooLarge,
    UnknownStrategy,
)
from uqagg.strategies import TABLE, score_map


def test_default_sets():
    assert len(INTENSITY_SET) == 13
    assert len(SPATIAL_SET) == 3
    assert len(FULL_SET) == 16
    assert len(set(FULL_SET)) == 16
    for token in FULL_SET:
        assert parse_strategy(token).key == token


def test_canonicalization():
    assert parse_strategy("ata:.5").key == "ata:0.5"
    assert parse_strategy("ata:0.50").key == "ata:0.5"
    assert parse_strategy("plm:020").key == "plm:20"
    assert parse_strategy("aqa:0.75").key == "aqa:0.75"
    assert parse_strategy(" avg ").key == "avg"
    # parameterless spellings of the defaults collapse to the bare name
    assert parse_strategy("eds:0.2").key == "eds"
    assert parse_strategy("ent:4").key == "ent"
    assert parse_strategy("eds:0.3").key == "eds:0.3"
    assert parse_strategy("ent:8").key == "ent:8"



def test_keys_keep_full_parameter_precision():
    # Model JSON and FeatureSetSpec recompute features from keys, so a key
    # must re-parse to the strategy it names.
    rng = np.random.default_rng(3)
    values = rng.random((8, 8))
    values[:4, :4] = 0.12345675
    u = validate_map(values)
    for token in ("ata:0.1234567", "aqa:0.1234567", "eds:0.1234567"):
        s = parse_strategy(token)
        again = parse_strategy(s.key)
        assert s.key == token
        assert again.key == s.key
        assert again(u) == s(u)
    keys = [s.key for s in parse_strategy_list("aqa:0.1234567,aqa:0.1234568")]
    assert keys == ["aqa:0.1234567", "aqa:0.1234568"]

def test_parse_rejections():
    for bad in ("nope", "plm", "ata", "aqa", "gmm", ""):
        with pytest.raises((UnknownStrategy, InvalidParam)):
            parse_strategy(bad)
    with pytest.raises(InvalidParam):
        parse_strategy("avg:3")
    with pytest.raises(InvalidParam):
        parse_strategy("plm:two")
    with pytest.raises(InvalidParam):
        parse_strategy("plm:0")
    with pytest.raises(InvalidParam):
        parse_strategy("ata:1.5")
    with pytest.raises(InvalidParam):
        parse_strategy("ent:1")


def test_parse_list_and_duplicates():
    keys = [s.key for s in parse_strategy_list("avg, plm:20 ,mor")]
    assert keys == ["avg", "plm:20", "mor"]
    with pytest.raises(DuplicateStrategy):
        parse_strategy_list("avg,avg")
    # duplicates after canonicalization count too
    with pytest.raises(DuplicateStrategy):
        parse_strategy_list("eds,eds:0.2")
    with pytest.raises(UnknownStrategy):
        parse_strategy_list("")
    keys = [s.key for s in parse_strategy_list(["mor", "ent:8"])]
    assert keys == ["mor", "ent:8"]


def test_strategies_dispatch_to_the_plain_functions():
    rng = np.random.default_rng(0)
    u = validate_map(rng.random((12, 12)))
    mask = SegmentationMask(rng.integers(0, 3, size=(12, 12)))
    pairs = {
        "avg": avg(u),
        "plm:5": plm(u, 5),
        "ata:0.4": ata(u, 0.4),
        "aqa:0.75": aqa(u, 0.75),
        "mor": mor(u),
        "eds:0.3": eds(u, 0.3),
        "ent:8": ent(u, 8),
        "bca": bca(u, mask),
        "qfr": qfr(u, mask),
    }
    for token, want in pairs.items():
        strat = parse_strategy(token)
        assert strat(u, mask) == want


def test_mask_requirement_enforced():
    u = validate_map(np.full((4, 4), 0.5))
    strat = parse_strategy("bca")
    assert strat.requires_mask
    with pytest.raises(MaskRequired):
        strat(u)
    assert not parse_strategy("avg").requires_mask


def test_compute_features_shape_and_order():
    rng = np.random.default_rng(1)
    maps = [rng.random((8, 8)) for _ in range(5)]
    strategies = parse_strategy_list("ent,avg,mor")
    fm = compute_features(maps, strategies)
    assert fm.shape == (5, 3) and fm.dtype == np.float64
    # column j holds strategy j
    np.testing.assert_allclose(fm[:, 1], [float(np.mean(m)) for m in maps])
    np.testing.assert_array_equal(
        fm, [[strategy(m) for strategy in strategies] for m in maps])


def test_compute_features_mask_policy():
    maps = [np.full((4, 4), 0.5)]
    strategies = parse_strategy_list("avg,ica")
    with pytest.raises(MaskRequired) as err:
        compute_features(maps, strategies)
    assert "ica" in str(err.value)
    masks = [SegmentationMask(np.ones((4, 4), dtype=int))]
    fm = compute_features(maps, strategies, masks)
    assert fm.shape == (1, 2)
    with pytest.raises(InvalidParam):
        compute_features(maps, strategies, masks * 2)


# ---------------------------------------------------------------------------
# one case per entry of the strategy table

# name -> (a parameterized token, which is its own canonical key, and
# values outside the parameter's domain, each of which raises InvalidParam)
CASES = {
    "avg": ("avg", ()),
    "plm": ("plm:5", (0, -3)),
    "ata": ("ata:0.4", (1.5, -0.1, float("nan"))),
    "aqa": ("aqa:0.75", (1.01, -0.25, float("nan"))),
    "bca": ("bca", ()),
    "ica": ("ica", ()),
    "qfr": ("qfr", ()),
    "mor": ("mor", ()),
    "eds": ("eds:0.3", (0.0, 1.0)),
    "ent": ("ent:8", (1, 0)),
}


def _map_and_mask():
    rng = np.random.default_rng(12)
    u = validate_map(rng.random((12, 12)))
    return u, SegmentationMask(rng.integers(0, 3, size=(12, 12)))


def test_cases_cover_every_table_entry():
    assert set(CASES) == set(TABLE)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_table_key_round_trips_and_dispatches(name):
    entry = TABLE[name]
    token = CASES[name][0]
    strat = parse_strategy(token)
    assert strat.key == token
    assert parse_strategy(strat.key).key == token
    assert strat.requires_mask == entry.needs_mask
    u, mask = _map_and_mask()
    args = (mask,) if entry.needs_mask else ()
    if entry.parse is not None:
        args += (entry.parse(token.partition(":")[2]),)
    assert strat(u, mask) == entry.kernel(u, *args)
    if entry.parse is None:
        with pytest.raises(InvalidParam):
            parse_strategy(f"{name}:1")
    elif entry.default is None:
        with pytest.raises(InvalidParam):
            parse_strategy(name)
    else:
        assert parse_strategy(name).key == name
        assert parse_strategy(f"{name}:{entry.default!r}").key == name


@pytest.mark.parametrize("name", sorted(n for n in TABLE if TABLE[n].parse))
def test_out_of_domain_raises_the_same_error_at_parse_and_in_kernel(name):
    _, bad_values = CASES[name]
    u, _ = _map_and_mask()
    for bad in bad_values:
        with pytest.raises(InvalidParam):
            parse_strategy(f"{name}:{bad!r}")
        with pytest.raises(InvalidParam):
            TABLE[name].kernel(u, bad)


def test_ata_and_aqa_accept_the_closed_interval_endpoints():
    u, _ = _map_and_mask()
    assert parse_strategy("ata:0")(u) == ata(u, 0.0)
    assert parse_strategy("ata:1")(u) == ata(u, 1.0)
    assert parse_strategy("aqa:0")(u) == pytest.approx(avg(u), rel=1e-12)
    assert parse_strategy("aqa:1")(u) == float(u.values.max())
    assert [parse_strategy(t).key for t in ("ata:0", "aqa:1")] == ["ata:0.0", "aqa:1.0"]
    # -0 is 0: one key, so the pair is caught as a duplicate
    assert parse_strategy("ata:-0").key == "ata:0.0"
    with pytest.raises(DuplicateStrategy):
        parse_strategy_list("aqa:0,aqa:-0.0")


@pytest.mark.parametrize("name", sorted(n for n in TABLE if TABLE[n].needs_mask))
def test_compute_features_no_foreground_names_the_strategy(name):
    maps = [np.full((4, 4), 0.5)]
    masks = [SegmentationMask(np.zeros((4, 4), dtype=int))]
    with pytest.raises(NoForeground, match=f"^strategy '{name}': "):
        compute_features(maps, parse_strategy_list(["avg", name]), masks)


@pytest.mark.parametrize("name", sorted(n for n in TABLE if TABLE[n].needs_mask))
def test_missing_mask_is_refused_where_the_mask_is_read(name):
    u = validate_map(np.full((4, 4), 0.5))
    with pytest.raises(MaskRequired):
        TABLE[name].kernel(u, None)
    words = f"^strategy '{name}': a segmentation mask is needed; none was given$"
    with pytest.raises(MaskRequired, match=words):
        score_map(MapPass(u), parse_strategy_list(["avg", name]))
    with pytest.raises(MaskRequired, match=words):
        compute_features([u], parse_strategy_list(["avg", name]))


def test_score_map_skips_no_foreground_and_names_other_errors():
    u = validate_map(np.full((8, 8), 0.5))
    background = SegmentationMask(np.zeros((8, 8), dtype=int))
    row, skipped = score_map(MapPass(u, background),
                             parse_strategy_list("avg,qfr,bca"))
    assert row[0] == 0.5 and np.isnan(row[1:]).all()
    assert [str(exc).split(": ")[0] for exc in skipped] == [
        "strategy 'qfr'", "strategy 'bca'"]
    assert all(isinstance(exc, NoForeground) for exc in skipped)
    with pytest.raises(PatchTooLarge, match="^strategy 'plm:20': patch 20 exceeds"):
        score_map(MapPass(u), parse_strategy_list("avg,plm:20"))


def test_score_map_records_strategy_warnings_as_notes():
    zero = validate_map(np.zeros((8, 8)))
    background = SegmentationMask(np.zeros((8, 8), dtype=int))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a warning that escaped would raise
        row, notes = score_map(MapPass(zero, background),
                               parse_strategy_list("avg,qfr,mor,eds"))
    assert row[0] == 0.0 and np.isnan(row[1]) and (row[2:] == 0.0).all()
    assert [str(note).split(": ")[0] for note in notes] == [
        "strategy 'qfr'", "strategy 'mor'", "strategy 'eds'"]
    assert isinstance(notes[0], NoForeground)
    assert all(type(note) is RuntimeWarning for note in notes[1:])
    assert str(notes[2]) == ("strategy 'eds': spatial mass ratio of an "
                             "all-zero map is defined as 0.0")


def test_compute_features_issues_strategy_warnings_again():
    with pytest.warns(RuntimeWarning, match="^strategy 'mor': spatial mass ratio"):
        feats = compute_features([np.zeros((8, 8))], parse_strategy_list("avg,mor"))
    assert (feats == 0.0).all()
