"""Payload tripwire: the sha256 of every payload (manifest excluded) of small
runs of the subcommands whose bytes are the same under every numpy SIMD
target.  A digest that moves means a computed number or a payload's layout
changed; such a change is declared in CHANGES.md and the table rewritten
with it.  evolve and flux stay out until their bytes are bounded across
SIMD targets."""

import hashlib

import pytest

from relqlab import cli

_ENSEMBLE = ["ensemble", "--n-runs", "300", "--max-steps", "5000", "--seed", "3"]
_ENSEMBLE_REPORT = {
    "ensemble_report.json": "36742c400f08bfcf74aafec7ab7b99eeca6e012462b308c6ce6b96d5508f5255"}

RUNS = {  # name: (argv, {payload: sha256})
    "collapse-uniform": (["collapse", "--seed", "5", "--max-steps", "3000"], {
        "collapse_history.csv": "db1c97df0e3c3fd6a57395ae971a609a2d1af6c22962baf491663aa5c16e1aa2",
        "collapse_summary.json": "ebdb43bfbf97b46ee4fe409337ee841338898b2c3f0d7a9c1828c788f1128820",
    }),
    "collapse-alternating": (["collapse", "--mode", "alternating", "--max-steps", "3000"], {
        "collapse_history.csv": "81246f856aeb563df7a8e423593242a3655b951e3230cec9783c8c1223a1a116",
        "collapse_summary.json": "0d4280be43f3461f4d4c86f250b5196b31c566863427ba64a7b2460c00399cae",
    }),
    # one digest for both: results are independent of the worker count
    "ensemble-threads-1": ([*_ENSEMBLE, "--threads", "1"], _ENSEMBLE_REPORT),
    "ensemble-threads-2": ([*_ENSEMBLE, "--threads", "2"], _ENSEMBLE_REPORT),
    "ab": (["ab"], {
        "ab_pattern.csv": "7ab1df7f242e4da076e074ddd3a47e136902eeea57917300a3dda6119cd0e3dc",
        "ab_summary.json": "6346e580b15856997177460523237982d91c583d55b27f2c769cba011bf6065f",
    }),
    "kernel": (["kernel", "--eta-count", "16"], {
        "kernel_profile.csv": "63d971880718206720c241e1f7c072af284551ae7ca7da3f71a6260151e26703",
    }),
    "oracle": (["oracle", "--n-max", "3"], {
        "oracle_moments.csv": "afed9782e8fd9e7efc091407ce7696d692b7a33e5a9cb4e95229a65a3618534e",
    }),
}


@pytest.fixture(scope="module")
def payload_digests(tmp_path_factory):
    """The payload digests of a run of RUNS, each run made once."""
    done = {}

    def digests(run):
        if run not in done:
            out = tmp_path_factory.mktemp(run) / "out"
            assert cli.main([*RUNS[run][0], "--out", str(out)]) == 0
            done[run] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in out.iterdir() if p.name != "manifest.json"}
        return done[run]

    return digests


@pytest.mark.parametrize("run, name", [(run, name) for run, (_, table) in RUNS.items()
                                       for name in table],
                         ids=lambda v: v)
def test_payload_digest(payload_digests, run, name):
    got = payload_digests(run)
    assert sorted(got) == sorted(RUNS[run][1])
    assert got[name] == RUNS[run][1][name]
