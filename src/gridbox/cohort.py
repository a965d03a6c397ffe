"""Seeded synthetic cohorts and their ground-truth manifests.

The generator produces raw (pre-anonymization) MGI files for one site,
fully determined by ``(spec.seed, spec.site)``: patient demographics, a
study/series/image tree grouped into screening visits of up to four views,
and 16-bit pixel arrays of background noise (< 8000) with up to three
planted bright 3×3 blocks at 60000 — so the builtin density program and
component counting have exactly known answers.

Every generated patient name carries the literal marker ``Canary-`` and a
full birth date; both serve as tripwires for the privacy scan.  Birth years
(1920–1965) never overlap study years (1995–2005), so a full birth-date
string can never be mistaken for a study date on the wire.

``manifest_for`` computes the expected answer — counts and exact row-id
sets — to the canonical query battery (one by-id query per site, all
female, the 50–60 age band with left laterality) by direct loops over the
generated plans, plus per-site catalog statistics.  It needs the site
secrets because anonymized ids are keyed hashes of the original ids.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from gridbox.anonymize import anonymize_for_site
from gridbox.ids import IdMinter
from gridbox.mgi import MgiFile, write_mgi

SITE_PROFILES = {"CAM": (1423, 9716), "UDI": (1479, 17285)}
_DEFAULT_PROFILE = (100, 680)

STUDY_YEARS = (1995, 2005)
_VIEW_CYCLE = (("L", "CC"), ("L", "MLO"), ("R", "CC"), ("R", "MLO"))
_BLOCK_VALUE = 60000
_BACKGROUND_CEILING = 8000


@dataclass(frozen=True)
class CohortSpec:
    seed: int
    site: str
    n_patients: int = 100
    images_per_patient: float = 6.8
    female_fraction: float = 0.85
    age_lo: int = 40
    age_hi: int = 75
    rows: int = 64
    cols: int = 64
    dose_mu: float = 1.2
    dose_sigma: float = 0.35
    dose_missing: float = 0.1

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in (
            "seed", "site", "n_patients", "images_per_patient", "female_fraction",
            "age_lo", "age_hi", "rows", "cols", "dose_mu", "dose_sigma",
            "dose_missing")}


def spec_for_site(site: str, seed: int, n_patients: int | None = None,
                  full_scale: bool = False) -> CohortSpec:
    """Desk-scale default: 100 patients preserving the site's historical
    images-per-patient ratio; ``full_scale`` restores the historical counts."""
    profile_patients, profile_images = SITE_PROFILES.get(site, _DEFAULT_PROFILE)
    ratio = profile_images / profile_patients
    if full_scale:
        n = profile_patients
    else:
        n = 100 if n_patients is None else n_patients
    return CohortSpec(seed=seed, site=site, n_patients=n, images_per_patient=ratio)


@dataclass(frozen=True)
class ImagePlan:
    study_index: int
    image_index: int
    study_id: str
    series_id: str
    image_id: str
    study_date: date
    laterality: str
    view: str
    dose: float | None
    n_blocks: int
    block_cells: tuple


@dataclass(frozen=True)
class PatientPlan:
    index: int
    original_id: str
    name: str
    sex: str
    birth_date: date
    images: tuple = field(hash=False)

    @property
    def birth_year(self) -> int:
        return self.birth_date.year


def plan_site(spec: CohortSpec) -> list[PatientPlan]:
    rnd = random.Random(f"cohort:{spec.seed}:{spec.site}")
    patients = []
    for i in range(spec.n_patients):
        sex = "F" if rnd.random() < spec.female_fraction else "M"
        age = rnd.randint(spec.age_lo, spec.age_hi)
        first_year = rnd.randint(*STUDY_YEARS)
        birth = date(first_year - age, rnd.randint(1, 12), rnd.randint(1, 28))
        mean = spec.images_per_patient
        n_images = max(1, round(rnd.gauss(mean, mean / 3)))
        images = []
        n_studies = math.ceil(n_images / 4)
        grid_cells = [(r, c) for r in range(spec.rows // 8)
                      for c in range(spec.cols // 8)]
        for j in range(n_studies):
            year = min(first_year + j // 2, STUDY_YEARS[1])
            study_date = date(year, rnd.randint(1, 12), rnd.randint(1, 28))
            in_study = min(4, n_images - 4 * j)
            for k in range(in_study):
                laterality, view = _VIEW_CYCLE[k]
                dose = None
                if rnd.random() >= spec.dose_missing:
                    dose = round(max(0.05, rnd.gauss(spec.dose_mu, spec.dose_sigma)), 3)
                n_blocks = min(rnd.randint(0, 3), len(grid_cells))
                cells = tuple(sorted(rnd.sample(grid_cells, n_blocks)))
                images.append(ImagePlan(
                    study_index=j, image_index=k,
                    study_id=f"{spec.site}-st-{i:04d}-{j}",
                    series_id=f"{spec.site}-se-{i:04d}-{j}-0",
                    image_id=f"{spec.site}-im-{i:04d}-{j}-{k}",
                    study_date=study_date, laterality=laterality, view=view,
                    dose=dose, n_blocks=n_blocks, block_cells=cells))
        patients.append(PatientPlan(
            index=i, original_id=f"{spec.site}-pat-{i:04d}",
            name=f"Canary-{spec.site}-{i:04d} Doe", sex=sex, birth_date=birth,
            images=tuple(images)))
    return patients


def render_pixels(spec: CohortSpec, patient: PatientPlan,
                  image: ImagePlan) -> np.ndarray:
    rng = np.random.default_rng(
        [spec.seed, patient.index, image.study_index, image.image_index,
         int.from_bytes(spec.site.encode("utf-8"), "big")])
    pixels = rng.integers(0, _BACKGROUND_CEILING, size=(spec.rows, spec.cols),
                          dtype=np.uint16)
    for cell_r, cell_c in image.block_cells:
        r, c = cell_r * 8 + 2, cell_c * 8 + 2
        pixels[r:r + 3, c:c + 3] = _BLOCK_VALUE
    return pixels


def render_image(spec: CohortSpec, patient: PatientPlan,
                 image: ImagePlan) -> MgiFile:
    header = {
        "patient.name": patient.name,
        "patient.id": patient.original_id,
        "patient.sex": patient.sex,
        "patient.birth_date": patient.birth_date.isoformat(),
        "study.id": image.study_id,
        "study.date": image.study_date.isoformat(),
        "series.id": image.series_id,
        "series.modality": "MG",
        "image.id": image.image_id,
        "image.laterality": image.laterality,
        "image.view": image.view,
        "image.rows": str(spec.rows),
        "image.cols": str(spec.cols),
        "image.bits": "16",
    }
    if image.dose is not None:
        header["image.dose_mgy"] = repr(image.dose)
    header["site.id"] = spec.site
    return MgiFile(header, render_pixels(spec, patient, image))


def site_files(spec: CohortSpec, plans: list[PatientPlan] | None = None):
    """Yield every raw MGI file of the cohort in deterministic order."""
    for patient in plans if plans is not None else plan_site(spec):
        for image in patient.images:
            yield render_image(spec, patient, image)


def canary_strings(specs: dict[str, CohortSpec]) -> list[bytes]:
    """Byte patterns that must never appear in wire traffic: the name marker
    plus every planted full birth date."""
    dates = set()
    for spec in specs.values():
        for patient in plan_site(spec):
            dates.add(patient.birth_date.isoformat().encode("utf-8"))
    return [b"Canary-"] + sorted(dates)


# --- ground truth -----------------------------------------------------------------

def _image_gid(minter: IdMinter, pid, image: ImagePlan) -> str:
    return str(minter.mint_keyed(
        "image", f"{pid}|{image.study_id}|{image.series_id}|{image.image_id}"))


def _truth_entry(label: str, text: str, rows: dict[str, str]) -> dict:
    return {"label": label, "text": text, "images": len(rows),
            "patients": len(set(rows.values())), "rows": sorted(rows)}


def manifest_for(specs: dict[str, CohortSpec],
                 secrets: dict[str, bytes]) -> dict:
    """Expected post-upload state: per-site stats plus exact answers to the
    canonical query battery, computed by direct loops over the plans."""
    per_site_plans = {site: plan_site(spec) for site, spec in specs.items()}
    minters = {site: IdMinter(site, secrets[site]) for site in specs}

    sites_info = {}
    all_rows: list[tuple[str, str, PatientPlan, ImagePlan]] = []
    by_id_queries = []
    for site in sorted(specs):
        spec, plans, minter = specs[site], per_site_plans[site], minters[site]
        n_images = n_studies = 0
        stored: dict[str, int] = {}
        for patient in plans:
            pid = minter.mint_keyed("patient", patient.original_id)
            n_images += len(patient.images)
            n_studies += len({im.study_index for im in patient.images})
            for image in patient.images:
                all_rows.append((str(pid), _image_gid(minter, pid, image),
                                 patient, image))
            for raw in site_files(spec, [patient]):
                data = write_mgi(anonymize_for_site(raw, minter))
                stored[hashlib.sha256(data).hexdigest()] = len(data)
        sites_info[site] = {
            "patients": len(plans), "studies": n_studies, "series": n_studies,
            "images": n_images, "stored_bytes": sum(stored.values()),
            "spec": spec.to_json(),
        }
        busiest = max(plans, key=lambda p: (len(p.images), -p.index))
        by_id_queries.append((site, str(minter.mint_keyed(
            "patient", busiest.original_id))))

    queries = []
    for site, pid in by_id_queries:
        rows = {gid: pid_ for pid_, gid, _, _ in all_rows if pid_ == pid}
        queries.append(_truth_entry(
            f"by-id-{site}", f"select images where patient.id = {pid}", rows))
    female = {gid: pid for pid, gid, patient, _ in all_rows if patient.sex == "F"}
    queries.append(_truth_entry(
        "all-female", "select images where patient.sex = F", female))
    banded = {gid: pid for pid, gid, patient, image in all_rows
              if 50 <= image.study_date.year - patient.birth_year <= 60
              and image.laterality == "L"}
    queries.append(_truth_entry(
        "age-band-L",
        "select images where patient.age in [50,60] and image.laterality = L",
        banded))
    return {"seed": min(s.seed for s in specs.values()),
            "sites": sites_info, "queries": queries}


def manifest_text(manifest: dict) -> str:
    """The manifest as `gen-cohort` and the scenario runner write it."""
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def upload_site(client, spec: CohortSpec) -> dict:
    """Push the whole cohort through ADD; the client does the anonymization.
    Returns counts of uploaded files and changed records."""
    uploaded = changed_images = 0
    for raw in site_files(spec):
        result = client.add_bytes(write_mgi(raw))
        uploaded += 1
        changed_images += result["changed"]["image"]
    return {"site": spec.site, "uploaded": uploaded, "new_images": changed_images}
