"""The bundled reference tables and the checks on their data files."""

import pytest

from perfpart import tables

LOADERS = (tables.t1_table, tables.zone_table, tables.t3_table, tables.t4_table, tables.l41_table)


@pytest.fixture
def cold_tables():
    """Every table's cache empty before the test, and again after it."""
    for loader in LOADERS:
        loader.cache_clear()
    yield
    for loader in LOADERS:
        loader.cache_clear()


@pytest.mark.parametrize(
    "loader, name",
    [
        (tables.t1_table, "l61_t1.txt"),
        (tables.zone_table, "l61_zones.txt"),
        (tables.t3_table, "l61_t3_y5.txt"),
        (tables.t4_table, "l61_t4_y5.txt"),
        (tables.l41_table, "l41_parts.txt"),
    ],
)
def test_a_short_data_file_raises_value_error(loader, name, monkeypatch, cold_tables):
    """The data-file checks are raises, so python -O keeps them."""
    data_lines = tables._data_lines
    monkeypatch.setattr(tables, "_data_lines", lambda file: data_lines(file)[:-1])
    with pytest.raises(ValueError, match=f"perfpart/data/{name}: "):
        loader()


def test_the_zone_file_must_hold_every_zone(monkeypatch, cold_tables):
    data_lines = tables._data_lines
    monkeypatch.setattr(
        tables, "_data_lines", lambda file: [ln for ln in data_lines(file) if not ln.startswith("6 ")]
    )
    with pytest.raises(ValueError, match=r"l61_zones.txt: zones \[2, 3, 4, 5\], not 2..6"):
        tables.zone_table()


def test_the_golden_parts_must_number_53(monkeypatch, cold_tables):
    t4 = tables.t4_table()
    monkeypatch.setattr(tables, "t4_table", lambda: t4[:-1])
    with pytest.raises(ValueError, match=r"perfpart/data/l61_\*\.txt: 52 reference parts, not 53"):
        tables.l61_golden_parts()


def test_the_tables_load_as_bundled(cold_tables):
    assert [len(loader()) for loader in LOADERS] == [30, 5, 3, 4, 3]
    assert len(tables.l61_golden_parts()) == 53
