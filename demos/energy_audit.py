"""Audit a built model: contact energies, hydrogen bonds, steric clashes.

Builds one model in memory and prints the same report the `stericzip
energy` subcommand writes as JSON.

Run:  python demos/energy_audit.py
"""

from stericzip import (
    AtomSelector,
    ContactPair,
    FibrilSpec,
    OptimizerConfig,
    build_fibril_model,
    load_template,
    structure_energy_report,
)
from stericzip.template import DEFAULT_ANCHOR_SELECTORS, DEFAULT_FREE_SELECTORS

spec = FibrilSpec(sequence="GAAAAG", optimizer=OptimizerConfig(max_evaluations=40_000, seed=42))
model, build_report = build_fibril_model(load_template(), spec)

contacts = [
    ContactPair(AtomSelector.parse(a), AtomSelector.parse(b))
    for a, b in zip(DEFAULT_ANCHOR_SELECTORS, DEFAULT_FREE_SELECTORS)
]
report = structure_energy_report(model, lj=spec.lj, contacts=contacts)

print(f"model: {build_report.sequence}, {len(model.chains)} chains")
print(f"total contact energy: {report['total_contact_energy']:.6f}")
for row in report["contacts"]:
    print(
        f"  {row['first']} -- {row['second']}: {row['distance']:.3f} A "
        f"(optimum {row['optimal_distance']:.3f} A), energy {row['energy']:.6f}"
    )

print(f"\nhydrogen bonds: {report['hbond_count']}")
for bond in report["hbonds"][:6]:
    print(f"  {bond['donor']} ... {bond['acceptor']}: {bond['distance']:.3f} A")
if report["hbond_count"] > 6:
    print(f"  ... and {report['hbond_count'] - 6} more")

print(f"\nclashes below {report['parameters']['clash_cutoff']} A: {report['clash_count']}")
