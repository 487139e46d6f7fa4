"""Seeded run_clt reports pinned against tests/data/golden_reports.json.

One small config per sampling path (the generalized-gamma bulk and
series, the extended-gamma tail table, beta with c < 1, extended-gamma and
beta thinning) and the first 100 replicates of criterion 5's two runs and
criterion 6a and 6c each run in one process, and its first and last 5 standardized
values, sample mean and variance and KS statistic must equal the file's at
rel 1e-12.  A change that is meant to move a stream rewrites the file with
`python3 tools/report_digest.py --write-golden`; any other change that
moves one fails here.
"""
import json
import os

import numpy as np

from hazardlab import cli
from hazardlab.montecarlo import ExperimentConfig, run_clt

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_reports.json")


def test_seeded_reports_match_the_golden_file():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden["reports"]) == 11
    wrong = []
    for entry in golden["reports"]:
        c = cli.parse_config(entry["config"])
        report = run_clt(ExperimentConfig(c.kernel, c.intensity, c.functional, c.horizon,
                                          c.replicates, c.seed, c.epsilon, c.centering),
                         workers=1)
        z = report.standardized_samples
        got = {"first": z[:5], "last": z[-5:], "sample_mean": report.sample_mean,
               "sample_variance": report.sample_variance, "ks_statistic": report.ks_statistic}
        for field, value in got.items():
            if not np.allclose(value, entry[field], rtol=1e-12, atol=0.0):
                wrong.append(f"{entry['label']}: {field} is {value}, golden {entry[field]}")
    assert not wrong, (f"numpy {np.__version__} (the golden file has numpy "
                       f"{golden['numpy']}):\n" + "\n".join(wrong))
