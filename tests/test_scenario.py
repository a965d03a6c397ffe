import io
import re
from pathlib import Path

import pytest

from conftest import refuse_to_parse
from gridbox.scenario import ScenarioRunner, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_to_buffer(path):
    out = io.StringIO()
    failed = run_scenario(path, out=out)
    return failed, out.getvalue()


@pytest.mark.parametrize("name", ["single_site.scn", "partial_failure.scn",
                                  "table2.scn"])
def test_bundled_scenarios_pass(name):
    failed, text = run_to_buffer(SCENARIOS / name)
    assert failed == 0, text
    assert re.search(r"^\d+ steps, 0 failed$", text.strip().splitlines()[-1])
    assert "FAIL" not in text


def test_table2_parses_no_xml_it_rendered(monkeypatch):
    """assert-manifest reads the answer the query step kept, not its bytes."""
    refuse_to_parse(monkeypatch)
    failed, text = run_to_buffer(SCENARIOS / "table2.scn")
    assert failed == 0, text
    assert len(re.findall(r"^ok +\[ *\d+\] assert-manifest$", text, re.M)) == 4


def test_step_order_is_enforced(tmp_path):
    script = tmp_path / "bad.scn"
    script.write_text("query-at CAM :: select images where true\n")
    failed, text = run_to_buffer(script)
    assert failed == 1
    assert "no node for site 'CAM'" in text


def test_unknown_steps_fail_but_do_not_abort(tmp_path):
    script = tmp_path / "mixed.scn"
    script.write_text("# comment\n\nfrobnicate now\nassert-warning x\n")
    failed, text = run_to_buffer(script)
    assert failed == 2
    assert "unknown step 'frobnicate'" in text
    assert text.strip().splitlines()[-1] == "2 steps, 2 failed"


def test_failed_assertion_is_reported(tmp_path):
    script = tmp_path / "assert.scn"
    script.write_text(
        "start-vo 1 CAM\n"
        "gen-cohort 3 2\n"
        "query-at CAM :: @all-female\n"
        "query-at CAM :: select images where patient.sex = M\n"
        "assert-equal\n")
    failed, text = run_to_buffer(script)
    assert failed == 1
    assert "results differ" in text


def test_runner_reports_step_details(tmp_path):
    script = tmp_path / "detail.scn"
    script.write_text("start-vo 1 CAM\n"
                      "query-at CAM :: select images where true\n")
    runner = ScenarioRunner(script, out=io.StringIO())
    steps = runner.run()
    assert [s.ok for s in steps] == [True, True]
    assert steps[1].line_no == 2
    assert runner.results[-1]["kind"] == "query"
