"""Seeded benchmark inputs, made before any timing starts.

Everything the program receives is generated here from ``--seed``: the
cohort's raw (pre-anonymization) MGI bytes and the query texts.  The
cohort generator (``gridbox.cohort``) runs only in this module, so its cost
never lands in a timed window.  The planted ground truth (blocks per image)
is kept beside the inputs for the correctness gate and is never shown to
the program.

The files are uploaded in the order of their study dates, as an archive
is loaded chronologically, in ``BATCHES`` batches that each cover a date
range of their own; a workload can process each batch as it lands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date, timedelta

from gridbox.cohort import plan_site, site_files, spec_for_site
from gridbox.ids import IdMinter
from gridbox.mgi import write_mgi

SITES = ("CAM", "OXF", "UDI")
PATIENTS_PER_SITE = 150
BATCHES = 8  # upload batches, by study date

_PIXELS = 64 * 64
_BLOCK = 9  # each planted block is 3x3 pixels at 60000


def site_secret(index: int) -> bytes:
    return bytes([0x40 + index]) * 16


@dataclass(frozen=True)
class PlantedImage:
    site: str
    n_blocks: int

    @property
    def density(self) -> float:
        """The value ``smf-density`` must compute for this image."""
        return _BLOCK * self.n_blocks / _PIXELS


@dataclass(frozen=True)
class Batch:
    """Files whose study dates fall in ``[first, last]``, in upload order."""

    first: date
    last: date
    files: list  # (site, raw MGI bytes)

    @property
    def selector(self) -> str:
        return f"select images where study.date in [{self.first},{self.last}]"


@dataclass
class Inputs:
    seed: int
    specs: dict     # site -> CohortSpec
    secrets: dict   # site -> bytes
    batches: list   # Batch, in upload order
    planted: dict   # image global id -> PlantedImage
    patient_ids: list  # anonymized patient global ids, sorted

    @property
    def n_images(self) -> int:
        return sum(len(b.files) for b in self.batches)

    @property
    def raw_bytes(self) -> int:
        return sum(len(data) for b in self.batches for _, data in b.files)


def _batches(dated: list) -> list[Batch]:
    """Cut (date, site, bytes) triples, sorted by date, into ``BATCHES``
    runs of about equal size that never split one date."""
    dated.sort(key=lambda t: t[0])
    batches, start = [], 0
    for k in range(1, BATCHES + 1):
        end = len(dated) * k // BATCHES
        while 0 < end < len(dated) and dated[end][0] == dated[end - 1][0]:
            end += 1
        if end > start:
            batches.append(Batch(dated[start][0], dated[end - 1][0],
                                 [(site, data) for _, site, data in dated[start:end]]))
            start = end
    return batches


def make_inputs(seed: int) -> Inputs:
    specs, secrets, dated, planted, patient_ids = {}, {}, [], {}, []
    for index, site in enumerate(SITES):
        spec = spec_for_site(site, seed, n_patients=PATIENTS_PER_SITE)
        plans = plan_site(spec)
        specs[site], secrets[site] = spec, site_secret(index)
        images = [im for patient in plans for im in patient.images]
        dated.extend((im.study_date, site, write_mgi(f))
                     for im, f in zip(images, site_files(spec, plans), strict=True))
        minter = IdMinter(site, secrets[site])
        for patient in plans:
            pid = minter.mint_keyed("patient", patient.original_id)
            patient_ids.append(str(pid))
            for im in patient.images:
                gid = minter.mint_keyed(
                    "image", f"{pid}|{im.study_id}|{im.series_id}|{im.image_id}")
                planted[str(gid)] = PlantedImage(site, im.n_blocks)
    return Inputs(seed, specs, secrets, _batches(dated), planted, sorted(patient_ids))


# --- query sets -----------------------------------------------------------------
# Parameters are drawn from the seed; each template keeps its selectivity
# band whatever the draw, so every seed asks for the same kind of work.

def _day(rnd: random.Random, lo: date, hi: date) -> date:
    return lo + timedelta(days=rnd.randint(0, (hi - lo).days))


def selective_queries(inputs: Inputs) -> list[str]:
    """Each returns at most ~2% of images; all three targets, one id-pinned
    query and one ``derived.`` predicate."""
    rnd = random.Random(f"perfbench:selective:{inputs.seed}")
    age = rnd.randint(45, 68)
    start = _day(rnd, date(1996, 1, 1), date(2004, 6, 30))
    return [
        f"select images where patient.sex = M and patient.age in [{age},{age + 3}]",
        f"select images where image.dose_mgy >= {rnd.choice((1.95, 2.0, 2.05))}",
        f"select studies where study.date in [{start},{start + timedelta(days=45)}]",
        f"select patients where patient.sex = M and patient.age >= {rnd.randint(72, 74)}",
        f"select images where patient.id = {rnd.choice(inputs.patient_ids)}",
        "select images where derived.density >= 0.0065 and image.view = MLO"
        f" and patient.age <= {rnd.randint(43, 45)}",
        f"select studies where image.view = CC and image.dose_mgy < {rnd.choice((0.45, 0.5))}",
        "select patients where patient.sex = M and image.laterality = R"
        f" and patient.age in [{age},{age + 4}]",
    ]


def broad_queries(inputs: Inputs) -> list[str]:
    """Each returns at least ~50% of its target's rows.  Image queries
    outnumber study queries two to one, so the median falls among image
    queries rather than between the two kinds."""
    rnd = random.Random(f"perfbench:broad:{inputs.seed}")
    queries = [
        "select images where patient.sex = F",
        "select studies where patient.sex = F",
        f"select images where image.dose_mgy >= {rnd.choice((0.7, 0.8, 0.9))}",
        f"select studies where study.date >= {_day(rnd, date(1996, 1, 1), date(1996, 12, 31))}",
        "select images where derived.density < 0.005",
        f"select images where patient.age in [{rnd.randint(45, 50)},90]",
    ]
    rnd.shuffle(queries)
    return queries
