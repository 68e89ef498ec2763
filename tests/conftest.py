import csv
import io

import pytest

from didbracket.io import atomic_write_text, bundled_path, format_number, parse_panel_csv
from didbracket.model import PanelDataset, PanelRecord, PeriodRange, StudyDesign

LOWER = frozenset({"Iowa", "Kansas", "Kentucky", "Nebraska", "Oklahoma"})
UPPER = frozenset({"Arkansas", "Illinois", "Tennessee"})


@pytest.fixture(scope="session")
def bundled_panel() -> PanelDataset:
    return parse_panel_csv(bundled_path("missouri_region.csv"))


@pytest.fixture(scope="session")
def paper_design() -> StudyDesign:
    return StudyDesign(
        treated="Missouri",
        lower_controls=LOWER,
        upper_controls=UPPER,
        prestudy=PeriodRange(1994, 1998),
        before=PeriodRange(1999, 2007),
        after=PeriodRange(2008, 2016),
    )


def make_panel(cells, se=0.1, population=1_000_000):
    """Panel from {unit: {year: rate}} with constant population and SE."""
    records = []
    for unit, years in cells.items():
        for year, rate in years.items():
            records.append(
                PanelRecord(unit_id=unit, year=year, rate=rate, se=se,
                            population=population)
            )
    return PanelDataset(records)


def write_panel_csv(panel: PanelDataset, path) -> None:
    """Inverse of parse_panel_csv for valid panels (field-for-field)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["unit", "year", "rate", "se", "deaths", "population"])
    for r in panel.records:
        writer.writerow(
            [
                r.unit_id,
                r.year,
                format_number(r.rate),
                "" if r.se is None else format_number(r.se),
                "" if r.deaths is None else r.deaths,
                r.population,
            ]
        )
    atomic_write_text(path, buf.getvalue())


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(ident, title): acceptance criterion metadata"
    )


_CRITERIA = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    ident, title = marker.args
    status = "PASS" if report.passed else "FAIL"
    if hasattr(report, "wasxfail"):
        status = "FAIL (expected: documented spec defect)" if report.skipped else "PASS"
    elif report.skipped:
        status = "SKIP"
    _CRITERIA.setdefault(ident, []).append((title, status))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for ident in sorted(_CRITERIA):
        for title, status in _CRITERIA[ident]:
            terminalreporter.write_line(f"criterion {ident}: {status} - {title}")
