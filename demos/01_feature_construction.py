"""Walk through the feature constructions on a hand-sized example.

Builds a tiny world of three countries, assigns individuals to birth,
death, immigration, and emigration flows, and prints each derived block:
popularity-weighted counts, diversity and ubiquity, the specialization
matrix, complexity indices, and the SVD factors.

Run from the repository root:  python demos/01_feature_construction.py
"""

import numpy as np

from histgdp.data_ingest import (
    BiographyRecord,
    Dataset,
    Location,
    LocationTable,
    assign_flows,
)
from histgdp.features import (
    avg_ubiquity,
    diversity,
    eci,
    flow_counts,
    hpi,
    rca_matrix,
    svd_factors,
)

locations = LocationTable([
    Location("IT", "Italy", "country", None, "Southern Europe"),
    Location("NL", "Netherlands", "country", None, "Western Europe"),
    Location("PL", "Poland", "country", None, "Eastern Europe"),
])


def person(pid, born, birth_loc, death_loc, occupation, views):
    return BiographyRecord(
        person_id=pid, name=pid, birth_year=born, death_year=born + 60,
        birth_location=birth_loc, death_location=death_loc,
        occupation=occupation, pageviews=views, language_editions=4,
    )


records = [
    person("painter_a", 1470, "IT", "IT", "painter", 250_000),
    person("painter_b", 1480, "IT", "IT", "painter", 40_000),
    person("painter_c", 1495, "IT", "NL", "painter", 15_000),   # emigrant of IT
    person("printer_a", 1475, "NL", "NL", "printer", 30_000),
    person("printer_b", 1500, "IT", "NL", "printer", 9_000),
    person("lawyer_a", 1490, "NL", "NL", "lawyer", 5_000),
    person("lawyer_b", 1500, "PL", "PL", "lawyer", 12_000),
    person("priest_a", 1460, "PL", "IT", "priest", 3_000),      # immigrant to IT
]

print("=== Historical popularity (HPI) ===")
for r in records[:3]:
    score = hpi(r.pageviews, r.language_editions, 2023 - r.birth_year)
    print(f"  {r.person_id:10s} views={r.pageviews:>7d} -> HPI {score:.3f}")

print("\n=== Flow assignment for the 1550 snapshot (150-year window) ===")
flows = assign_flows(records, locations, 1550, 150)
for flow in ("births", "deaths", "immigrants", "emigrants"):
    table = getattr(flows, flow)
    parts = [f"{lid}:{len(people)}" for lid, people in sorted(table.items())]
    print(f"  {flow:10s} {'  '.join(parts)}")

dataset = Dataset(records=records, locations=locations, gdp=[])
counts = flow_counts(flows, dataset.by_person, locations, "country", dataset.occupations)

print("\n=== HPI-weighted birth counts (locations x occupations) ===")
print("  occupations:", counts.occupations)
for lid in counts.location_ids:
    row = counts.weighted["births"][counts.row(lid)]
    print(f"  {lid}: {np.round(row, 2)}")

print("\n=== Diversity and average ubiquity (births) ===")
div = diversity(counts, "births")
ubiq = avg_ubiquity(counts, "births")
for lid in counts.location_ids:
    i = counts.row(lid)
    print(f"  {lid}: diversity={div[i]}  avg_ubiquity={ubiq[i]:.2f}")

print("\n=== Specialization matrix (RCA >= 1) and complexity ===")
rca = rca_matrix(counts, "births")
print("  kept locations:", rca.locations)
print(rca.binary)
result = eci(rca.binary)
for lid, value in zip(rca.locations, result.eci):
    print(f"  ECI[{lid}] = {value:+.3f}")

print("\n=== First SVD factors of log10(1 + N) for births ===")
factors = svd_factors(counts, "births")
for lid in counts.location_ids:
    print(f"  {lid}: {np.round(factors[counts.row(lid)][:3], 3)}")
