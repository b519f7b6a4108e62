"""Build all three Ala/Gly hexapeptide window models from the packaged template.

Writes model_<sequence>.pdb and a JSON report next to each, then prints a
one-line summary per model.  The three sequences are the 6-residue windows
of the AGAAAAGA palindrome.

Run:  python demos/build_three_models.py [output_dir]
"""

import json
import sys
from pathlib import Path

from stericzip import (
    FibrilSpec,
    OptimizerConfig,
    PALINDROME_WINDOWS,
    build_fibril_model,
    load_template,
    write_pdb,
)

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output")
out_dir.mkdir(parents=True, exist_ok=True)

template = load_template()
print(f"template: chains {template.chain_ids()}, {template.n_atoms()} atoms")

for sequence in PALINDROME_WINDOWS:
    spec = FibrilSpec(
        sequence=sequence,
        model_name=f"model_{sequence.lower()}",
        optimizer=OptimizerConfig(max_evaluations=40_000, seed=42),
    )
    model, report = build_fibril_model(template, spec)

    pdb_path = out_dir / f"{spec.model_name}.pdb"
    pdb_path.write_text(write_pdb(model))
    (out_dir / f"{spec.model_name}.report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )

    contacts = ", ".join(f"{c['distance']:.3f} A" for c in report.contacts)
    translation = ", ".join(f"{x:.3f}" for x in report.sheet_transform[9:])
    print(
        f"{sequence}: {len(model.chains)} chains, "
        f"H-bonds {report.hbond_count_before}->{report.hbond_count_after} "
        f"(model total {report.model_hbond_count}), "
        f"contacts [{contacts}], clashes {len(report.clashes)}, "
        f"sheet-2 translation ({translation}) A -> {pdb_path}"
    )
