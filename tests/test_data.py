import re
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import (random_theta, row_validate, simulate_from_theta,
                      stack_tables)
from mislate.data import (CellStats, Dataset, Mode, ParamVector, cell_stats,
                          param_names, validate)
from mislate.exceptions import EmptyCell, ValidationError
from mislate.identification import forward_cell_stats, identify


def _full_dataset(mode=Mode.CASE_II):
    # one row per (z, v, t) cell, in z, v, t order, with y = 0, 1, ..., 7
    z, v, t = np.indices((2, 2, 2)).reshape(3, -1)
    return Dataset(y=np.arange(8.0), t=t, z=z, v=v, v_support=(0, 1),
                   mode=mode)


def test_validate_full_dataset_ok():
    assert validate(cell_stats(_full_dataset())) == []


@pytest.mark.parametrize("y,cells", [
    ([1e150] * 8, 8),                          # a mean beyond Y_MAX
    ([1e150, -1e150] + [0.0] * 6, 1),          # a spread beyond Y_MAX, mean 0
    ([1e155] + [0.0] * 7, 8),                  # a square that overflows
    ([8e307, 8e307] + [0.0] * 6, 8),           # a z arm's sum that overflows
    ([1e155, -1e155] + [0.0] * 6, 1),          # a cell's ss_y that overflows
], ids=["mean", "spread", "square", "sum", "ss"])
def test_validate_refuses_y_where_the_moments_overflow(y, cells):
    # y is finite, but its cell sums or the fit's second moments are not;
    # the rows fill the first `cells` (z, v, t) cells in turn
    z, v, t = np.indices((2, 2, 2)).reshape(3, -1)[:, np.arange(8) % cells]
    ds = Dataset(y=np.array(y), t=t, z=z, v=v, v_support=(0, 1),
                 mode=Mode.CASE_II)
    problems = validate(cell_stats(ds))
    assert "y is too large: a cell's mean or spread exceeds 1e+100" in problems
    assert "y contains non-finite values" not in problems


def test_validate_degenerate_instrument():
    ds = Dataset(y=np.zeros(4), t=np.array([0, 1, 0, 1]),
                 z=np.ones(4, dtype=int), v=np.array([0, 0, 1, 1]),
                 v_support=(0, 1), mode=Mode.CASE_II)
    assert any("degenerate" in msg for msg in validate(cell_stats(ds)))


def test_validate_case_i_needs_three_support_points():
    ds = _full_dataset(mode=Mode.CASE_I)
    assert any("K >= 3" in msg for msg in validate(cell_stats(ds)))


def test_validate_lists_empty_cells_in_z_v_t_order():
    ds = Dataset(y=np.zeros(5), t=np.array([1, 0, 1, 0, 1]),
                 z=np.array([0, 0, 1, 1, 0]), v=np.array([0, 0, 0, 2, 2]),
                 v_support=("a", "b", "c"), mode=Mode.CASE_I)
    problems = validate(cell_stats(ds))
    # reference: one full-array scan per (z, v, t) cell
    expected = [
        f"empty cell: no observations with z={z}, v={ds.v_support[k]!r}, t={t}"
        for z in (0, 1) for k in range(ds.k) for t in (0, 1)
        if not np.any((ds.z == z) & (ds.v == k) & (ds.t == t))
    ]
    assert [m for m in problems if m.startswith("empty cell")] == expected
    assert len(expected) == 7


def test_cell_stats_table_sums():
    ds = _full_dataset()
    stats = cell_stats(ds)
    # _full_dataset puts y = 0, 1, ..., 7 into the cells in z, v, t order
    np.testing.assert_array_equal(stats.sum_y.ravel(), np.arange(8.0))
    np.testing.assert_array_equal(stats.ss_y, np.zeros((2, 2, 2)))
    np.testing.assert_array_equal(stats.n_zvt, np.ones((2, 2, 2)))
    assert stats.v_support == (0, 1)
    # a second row per cell at y + 10 + c: cell c holds {c, 2c + 10}, whose
    # mean is (3c + 10)/2 and centred sum of squares (c + 10)**2 / 2
    c = np.arange(8.0)
    two = Dataset(y=np.concatenate([ds.y, 2 * c + 10]),
                  t=np.tile(ds.t, 2), z=np.tile(ds.z, 2), v=np.tile(ds.v, 2),
                  v_support=("lo", "hi"), mode=ds.mode)
    stats = cell_stats(two)
    np.testing.assert_array_equal(stats.n_zvt, np.full((2, 2, 2), 2.0))
    np.testing.assert_array_equal(stats.sum_y.ravel(), 3 * c + 10)
    np.testing.assert_array_equal(stats.ss_y.ravel(), (c + 10) ** 2 / 2)
    assert stats.v_support == ("lo", "hi")


@pytest.mark.parametrize("column,value", [("t", 2), ("t", -1), ("z", 2),
                                          ("v", 2), ("v", -1)])
def test_cell_stats_refuses_codes_outside_their_range(column, value):
    # a t of 2 at (z=0, v=0) would otherwise be counted in (z=0, v=1, t=0),
    # and a v code of K would not fit the (2, K, 2) table
    ds = _full_dataset()
    cols = {"y": ds.y, "t": ds.t, "z": ds.z, "v": ds.v}
    cols[column] = cols[column].astype(np.int64)
    cols[column][0] = value
    with pytest.raises(ValidationError):
        Dataset(**cols, v_support=ds.v_support, mode=ds.mode)


@pytest.mark.parametrize("column,value", [
    ("t", 257), ("t", 0.7), ("t", np.nan), ("z", 1.5), ("z", -0.5),
    ("z", np.inf), ("v", 1.9), ("v", np.nan)])
def test_dataset_refuses_codes_as_given(column, value):
    # each would pass as a valid code once cast to int8 or int64: 257 is 1
    # in int8, 0.7 and 1.9 truncate to 0 and 1
    ds = _full_dataset()
    cols = {"y": ds.y, "t": ds.t, "z": ds.z, "v": ds.v}
    cols[column] = cols[column].astype(type(value))
    cols[column][0] = value
    message = ("v contains codes outside the declared support" if column == "v"
               else "t or z contains values outside {0,1}")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        Dataset(**cols, v_support=ds.v_support, mode=ds.mode)


def test_dataset_refuses_columns_of_different_lengths():
    ds = _full_dataset()
    with pytest.raises(ValidationError, match="^column lengths differ$"):
        Dataset(y=ds.y[:-1], t=ds.t, z=ds.z, v=ds.v, v_support=ds.v_support,
                mode=ds.mode)


def test_dataset_keeps_whole_number_codes_of_any_type():
    ds = _full_dataset()
    again = Dataset(y=ds.y, t=ds.t.astype(float), z=ds.z.astype(bool),
                    v=ds.v.astype(np.uint8), v_support=ds.v_support, mode=ds.mode)
    for name in ("t", "z", "v"):
        got, want = getattr(again, name), getattr(ds, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_cell_stats_hand_counted():
    ds = Dataset(
        y=np.array([1.0, 0.0, 2.0, 0.0]),
        t=np.array([1, 0, 1, 0]),
        z=np.array([1, 1, 0, 0]),
        v=np.array([0, 0, 0, 0]),
        v_support=(0,),
        mode=Mode.CASE_II,
    )
    stats = cell_stats(ds)
    assert stats.p_zv[1, 0] == 0.5
    assert stats.tau_zv[1, 0] == 1.0
    assert stats.tau_zv[0, 0] == 2.0
    assert stats.r_hat == 0.5


def test_cell_stats_duplication_invariance(rng):
    ds = _full_dataset()
    doubled = Dataset(
        y=np.concatenate([ds.y, ds.y]), t=np.concatenate([ds.t, ds.t]),
        z=np.concatenate([ds.z, ds.z]), v=np.concatenate([ds.v, ds.v]),
        v_support=ds.v_support, mode=ds.mode,
    )
    a, b = cell_stats(ds), cell_stats(doubled)
    np.testing.assert_array_equal(a.p_zv, b.p_zv)
    np.testing.assert_array_equal(a.tau_zv, b.tau_zv)
    assert a.r_hat == b.r_hat


def test_cell_stats_permutation_invariance(rng):
    ds = _full_dataset()
    perm = rng.permutation(ds.n)
    shuffled = Dataset(y=ds.y[perm], t=ds.t[perm], z=ds.z[perm], v=ds.v[perm],
                       v_support=ds.v_support, mode=ds.mode)
    a, b = cell_stats(ds), cell_stats(shuffled)
    np.testing.assert_allclose(a.p_zv, b.p_zv)
    np.testing.assert_allclose(a.tau_zv, b.tau_zv)
    np.testing.assert_allclose(a.mu_z, b.mu_z)


def test_cell_stats_aggregation_identity(rng):
    n = 500
    ds = Dataset(
        y=rng.normal(size=n),
        t=(rng.random(n) < 0.4).astype(int),
        z=(rng.random(n) < 0.5).astype(int),
        v=rng.integers(0, 3, size=n),
        v_support=(0, 1, 2),
        mode=Mode.CASE_I,
    )
    stats = cell_stats(ds)
    for z in (0, 1):
        w = stats.n_zv[z] / stats.n_zv[z].sum()
        assert abs(np.sum(w * stats.p_zv[z]) - stats.p_z[z]) < 1e-12
    assert 0.0 < stats.r_hat < 1.0


def test_cell_stats_empty_cell_raises():
    # the table builds with a NaN contrast; identify refuses the empty cell
    ds = Dataset(y=np.zeros(3), t=np.array([1, 1, 0]), z=np.array([0, 1, 1]),
                 v=np.zeros(3, dtype=int), v_support=(0,), mode=Mode.CASE_II)
    stats = cell_stats(ds)
    assert np.isnan(stats.tau_zv[0, 0])
    with pytest.raises(EmptyCell, match=r"^no observations with z=0, v=0, t=0$"):
        identify(stats, Mode.CASE_II)


def _parity_datasets():
    full = _full_dataset()
    yield "full", full
    yield "degenerate-z", Dataset(y=np.zeros(4), t=np.array([0, 1, 0, 1]),
                                  z=np.ones(4, dtype=int),
                                  v=np.array([0, 0, 1, 1]),
                                  v_support=(0, 1), mode=Mode.CASE_II)
    yield "case-i-k2", _full_dataset(mode=Mode.CASE_I)
    yield "case-ii-k1", Dataset(y=np.arange(4.0), t=np.array([0, 1, 0, 1]),
                                z=np.array([0, 0, 1, 1]), v=np.zeros(4, dtype=int),
                                v_support=("only",), mode=Mode.CASE_II)
    y = full.y.copy()
    y[3] = np.inf
    yield "inf", Dataset(y=y, t=full.t, z=full.z, v=full.v,
                         v_support=full.v_support, mode=full.mode)
    yield "empty", Dataset(y=np.zeros(0), t=np.zeros(0), z=np.zeros(0),
                           v=np.zeros(0), v_support=(0, 1), mode=Mode.CASE_II)
    rng = np.random.default_rng(5)
    for i in range(12):
        k = int(rng.integers(2, 5))
        z, v, t = np.indices((2, k, 2)).reshape(3, -1)
        keep = np.ones(4 * k, dtype=bool)
        keep[rng.choice(4 * k, size=1 + i % 7, replace=False)] = False
        cells = np.repeat(np.flatnonzero(keep), rng.integers(1, 4, keep.sum()))
        cells = rng.permutation(cells)
        yield f"random-{i}", Dataset(
            y=rng.normal(size=cells.size), t=t[cells], z=z[cells], v=v[cells],
            v_support=tuple(f"v{j}" for j in range(k)),
            mode=Mode.CASE_I if k >= 3 else Mode.CASE_II)


PARITY_DATASETS = dict(_parity_datasets())


@pytest.mark.parametrize("name", PARITY_DATASETS)
def test_table_validate_matches_the_row_checks(name):
    ds = PARITY_DATASETS[name]
    assert validate(cell_stats(ds)) == row_validate(ds)


def test_param_vector_pack_unpack_roundtrip(rng):
    from conftest import random_theta
    for mode, k in ((Mode.CASE_II, 2), (Mode.CASE_I, 3), (Mode.CASE_I, 5)):
        theta = random_theta(rng, mode, k)
        flat = theta.pack()
        expected = 2 * k + 9 if mode is Mode.CASE_I else 2 * k + 7
        assert flat.size == expected
        back = theta.unpack(flat, k, mode)
        np.testing.assert_allclose(back.pack(), flat)


def _named_value(theta, name):
    """The entry of theta that a param_names entry names; a CASE_II m0 or
    m1 is shared, so z = 0 and z = 1 must hold the same value."""
    field, z, k = re.fullmatch(r"(\w+)(?:\[z=(\d)(?:,k=(\d+))?\])?",
                               name).groups()
    value = getattr(theta, field)
    if z is None and field in ("m0", "m1"):
        assert value[0] == value[1]
        return value[0]
    if z is None:
        return value
    return value[int(z)] if k is None else value[int(z), int(k)]


CASE_II_K2_NAMES = [
    "beta_star", "delta_p_star", "r", "m0", "p_star[z=0,k=0]",
    "p_star[z=0,k=1]", "tau_star[z=0]", "m1", "p_star[z=1,k=0]",
    "p_star[z=1,k=1]", "tau_star[z=1]"]
CASE_I_K3_NAMES = [
    "beta_star", "delta_p_star", "r", "m0[z=0]", "m1[z=0]", "p_star[z=0,k=0]",
    "p_star[z=0,k=1]", "p_star[z=0,k=2]", "tau_star[z=0]", "m0[z=1]",
    "m1[z=1]", "p_star[z=1,k=0]", "p_star[z=1,k=1]", "p_star[z=1,k=2]",
    "tau_star[z=1]"]


@pytest.mark.parametrize("m0,m1", [([0.1, np.nan], [0.2, 0.2]),
                                   ([np.nan, np.nan], [0.2, 0.2]),
                                   ([0.1, 0.1], [0.2, 0.3])])
def test_case_ii_refuses_z_varying_or_nan_misclassification(m0, m1):
    # NaN equals nothing, itself included, so it is never z-invariant; a
    # stack is refused if any of its vectors is
    fields = dict(beta_star=1.0, delta_p_star=0.3, r=0.5,
                  p_star=np.full((2, 2), 0.5), tau_star=[1.0, 1.0],
                  mode=Mode.CASE_II)
    with pytest.raises(ValidationError):
        ParamVector(m0=m0, m1=m1, **fields)
    with pytest.raises(ValidationError):
        ParamVector(m0=[[0.1, 0.1], m0], m1=[[0.2, 0.2], m1],
                    **{**fields, "p_star": np.full((2, 2, 2), 0.5),
                       "tau_star": np.ones((2, 2))})


@pytest.mark.parametrize("name,value,message", [
    ("m0", [0.1, 0.1, 0.1], "m0 must have shape (2,), got (3,)"),
    ("tau_star", 1.0, "tau_star must have shape (2,), got ()"),
    ("p_star", np.full(2, 0.5), "p_star must have shape (2, K), got (2,)"),
    ("p_star", np.full((3, 2), 0.5), "p_star must have shape (2, K), got (3, 2)"),
], ids=["m0", "tau_star", "p_star-1d", "p_star-3-rows"])
def test_param_vector_refuses_a_field_of_the_wrong_shape(name, value, message):
    given = dict(beta_star=1.0, delta_p_star=0.3, r=0.5, m0=[0.1, 0.1],
                 m1=[0.2, 0.2], p_star=np.full((2, 2), 0.5),
                 tau_star=[1.0, 1.0], mode=Mode.CASE_II)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ParamVector(**{**given, name: value})


def test_unpacked_fields_refuses_a_wrong_coordinate_count():
    with pytest.raises(ValidationError,
                       match=r"^expected 11 coordinates, got \(10,\)$"):
        ParamVector.unpacked_fields(np.zeros(10), 2, Mode.CASE_II)


def test_param_names_pin_the_packed_order():
    assert param_names(2, Mode.CASE_II) == CASE_II_K2_NAMES
    assert param_names(3, Mode.CASE_I) == CASE_I_K3_NAMES


@pytest.mark.parametrize("mode,k", [(Mode.CASE_II, 2), (Mode.CASE_II, 3),
                                    (Mode.CASE_I, 3), (Mode.CASE_I, 5)])
def test_packed_order_matches_param_names(mode, k):
    names = param_names(k, mode)
    # unpack: coordinate i lands where names[i] says
    values = 1.0 + np.arange(len(names))
    theta = ParamVector.unpack(values, k, mode)
    assert [_named_value(theta, name) for name in names] == values.tolist()
    # pack: a vector with distinct entries packs names[i]'s entry at i
    m0, m1 = ((np.full(2, 0.01), np.full(2, 0.02)) if mode is Mode.CASE_II
              else ([0.01, 0.03], [0.02, 0.04]))
    theta = ParamVector(beta_star=-1.5, delta_p_star=0.3, r=0.4, m0=m0, m1=m1,
                        p_star=0.5 + 0.01 * np.arange(2 * k).reshape(2, k),
                        tau_star=[2.0, 3.0], mode=mode)
    flat = theta.pack()
    assert len(set(flat.tolist())) == len(names)
    assert flat.tolist() == [_named_value(theta, name) for name in names]


def test_cell_stats_takes_its_three_sums_and_derives_the_rest():
    assert [f.name for f in fields(CellStats) if f.init] == [
        "n_zvt", "sum_y", "ss_y", "mode", "v_support"]
    table = cell_stats(_full_dataset())
    doubled = replace(table, sum_y=2 * table.sum_y)
    np.testing.assert_array_equal(doubled.mu_z, 2 * table.mu_z)
    np.testing.assert_array_equal(doubled.tau_zv, 2 * table.tau_zv)
    np.testing.assert_array_equal(doubled.p_zv, table.p_zv)


def test_cell_stats_n_is_an_exact_count(rng):
    table = cell_stats(_full_dataset())
    assert type(table.n) is int and table.n == 8
    population = forward_cell_stats(random_theta(rng, Mode.CASE_I, 3))
    assert type(population.n) is int and population.n == 1


def test_indexing_a_stack_gives_each_table_bit_for_bit(rng):
    # every field, each summary included, as the table built alone has it
    def same(got, want):
        assert vars(got).keys() == vars(want).keys()
        for name, value in vars(want).items():
            assert type(getattr(got, name)) is type(value), name
            if isinstance(value, (np.ndarray, np.generic)):
                assert getattr(got, name).shape == value.shape, name
                assert getattr(got, name).tobytes() == value.tobytes(), name
            else:
                assert getattr(got, name) == value, name

    tables = [cell_stats(simulate_from_theta(random_theta(rng, Mode.CASE_II, 3),
                                             500, rng)) for _ in range(3)]
    stack = stack_tables(tables)
    for i, table in enumerate(tables):
        same(stack[i], table)
    same(stack[np.array([True, False, True])], stack_tables(tables[::2]))
    same(tables[0][None], stack_tables(tables[:1]))
