"""The bytes a small fixed VO writes, pinned.

A 3-site VO uploads a fixed cohort and asks the manifest's query battery at
every origin, and one more query whose answer holds null cells: the
battery's answers hold none, and a null takes the render down its other
path.  The XML of all answers and each site's ``catalog.log`` must hash to
the digests below, so a change to how answers are rendered, merged or
checked, or to how records are logged, that alters a single byte fails here
on every Python version the tests run on.  A change that means to alter
these bytes updates the digests and says why.
"""

import hashlib

import pytest
from conftest import build_vo

from gridbox.cohort import manifest_for, spec_for_site, upload_site

SITES = ("CAM", "UDI", "LEE")

# a row that matches on sex with no dose recorded holds a null dose
WITH_NULLS = "select images where patient.sex = F or image.dose_mgy > 1.5"

PINNED = {
    "answers": "d1c4a5c7b23746fb61f4bf9e7fb6cb649c1ba562be391619f2ff70adfba45320",
    "CAM": "25d0bcbaa274c70b528510555c0e0e89b30e7b950268fdc0cb0ce7352c3137ba",
    "UDI": "a3a61c0ffe220ba91445253d8a7fe933fcb0437a8d5539a28b1201141c7d72a9",
    "LEE": "7e9bc0552934d871dd3398ddaaf2301335c2b9220b82ef253fae2093b1fb1ffe",
}


@pytest.fixture(scope="module")
def fixed_vo(tmp_path_factory):
    vo = build_vo(tmp_path_factory.mktemp("pinned"), sites=SITES)
    specs = {site: spec_for_site(site, seed=1, n_patients=30) for site in SITES}
    for site in SITES:
        upload_site(vo.client(site), specs[site])
    vo.manifest = manifest_for(specs, vo.secrets)
    yield vo
    vo.stop()


def test_answers_and_catalog_logs_are_the_pinned_bytes(fixed_vo):
    answers = hashlib.sha256()
    texts = [entry["text"] for entry in fixed_vo.manifest["queries"]] + [WITH_NULLS]
    for text in texts:
        for site in SITES:
            xml, warnings = fixed_vo.client(site).query_xml(text)
            assert warnings == []
            answers.update(xml)
    digests = {"answers": answers.hexdigest()}
    for site in SITES:
        log = fixed_vo.root / f"node-{site.lower()}" / "catalog.log"
        digests[site] = hashlib.sha256(log.read_bytes()).hexdigest()
    assert digests == PINNED
