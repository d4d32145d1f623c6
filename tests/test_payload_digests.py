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
    # the ensemble's broadcast branch: one deterministic run stands for all (median 821)
    "ensemble-alternating": (["ensemble", "--mode", "alternating", "--n-runs", "50",
                              "--max-steps", "3000"], {
        "ensemble_report.json": "c6d02620910e2e2a3436ef076ccbfdb2c08b280189f5de53019ae8228fdf6022",
    }),
    # a state past the threshold at step 0 (median 0)
    "ensemble-collapsed-at-start": (["ensemble", "--a0-init", "0.9999", "--n-runs", "50"], {
        "ensemble_report.json": "7bd9382b2da8ec5ed59d62a06c72b729a972582eb129ed40953a19caf7b55d64",
    }),
    # narrow bands: in the first, trajectories cross the threshold and come back
    # within one lockstep row group (median 1); in the second, collapse comes
    # within the first noise chunk (median 53)
    "ensemble-narrow-band": (["ensemble", "--a0-init", "0.7071067811865476", "--threshold",
                              "0.51", "--sigma", "2.2", "--n-runs", "300"], {
        "ensemble_report.json": "e0b9ccf4160a5c50b9da9f206ab1d647fef28f9ec0dcc43f4f267659d92def35",
    }),
    "ensemble-near-band": (["ensemble", "--a0-init", "0.7", "--threshold", "0.55",
                            "--n-runs", "300"], {
        "ensemble_report.json": "9945ceba3dddc090ac2c565266a4136b1b0094cc9b7f7ad08512d90db6a35ce1",
    }),
    # a field too weak to collapse the paths: the fringe pattern (visibility 0.99882)
    "ab-uncollapsed": (["ab", "--b1-amp", "0.05"], {
        "ab_pattern.csv": "f488f02518d3fbabfc546498f52c5ba8a5c6d6faf379a0bf5217e39fb5256da1",
        "ab_summary.json": "11593b16bf740febb50f805ccf3ff23425388deeceb4b66c6a92b92cf4fe5d89",
    }),
    "kernel": (["kernel", "--eta-count", "16"], {
        "kernel_profile.csv": "63d971880718206720c241e1f7c072af284551ae7ca7da3f71a6260151e26703",
    }),
    # a nonzero phase, so the profile's complex product is exercised
    "kernel-phase": (["kernel", "--eta-count", "4096", "--a-line-integral", "0.3",
                      "--mass", "0.37"], {
        "kernel_profile.csv": "d17a6f54bdb0e3d35a07d12c454f6ac8fdddfe6643f6bfd4b97961aae4f025a3",
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
