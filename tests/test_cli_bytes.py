"""Byte pins of the CLI: the sha256 of stdout (and of a sweep's CSV) for a
fixed set of invocations.

A change that claims to leave the output alone is checked here rather than
by hand. When a change moves bytes on purpose, it says which ones in
CHANGES.md and updates the digests below; ``PYTHONPATH=src python
tests/test_cli_bytes.py`` prints the current ones.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from mdlab.cli import main

_TWOPOINT = '{"family": "twopoint", "a": 2.0, "b": 1.0}'
_SKEWED = '{"family": "twopoint", "a": 1.5, "b": 0.8}'
_STUDENT = '{"family": "student_t", "nu": 5.0}'
_EXPONENTIAL = '{"family": "centered_exponential", "rate": 1.0}'
_UNIFORM = '{"family": "uniform", "half_width": 1.7320508075688772}'
_SCALES = [0.5, 1.0, 2.0, 1.5, 0.75, 3.0, 1.25, 0.9]
_RADEMACHER_03 = '{"family": "rademacher", "scale": 0.3}'


def _sim(dist, n, x, method, *extra):
    return ["simulate", "--dist", dist, "--n", str(n), "--x", x, "--samples", "4096",
            "--seed", "5", "--method", method, *extra]


def _sweep(dist, n_grid, x_values, **extra):
    return {"dist": json.loads(dist), "n_grid": n_grid, "x_values": x_values,
            "output": "s.csv", "seed": 3, **extra}


PROBES = {
    "theory_rademacher": ["theory", "--dist", "rademacher", "--n", "100", "--x", "2"],
    "theory_twopoint": ["theory", "--dist", _TWOPOINT, "--n", "50", "--x", "1.5"],
    "theory_uniform": ["theory", "--dist", _UNIFORM, "--n", "64", "--x", "1.5"],
    "theory_exponential": ["theory", "--dist", _EXPONENTIAL, "--n", "200", "--x", "2.5",
                           "--r", "0.5"],
    "theory_student_t": ["theory", "--dist", _STUDENT, "--n", "1000", "--x", "3",
                         "--delta", "0.5"],
    "theory_scales": ["theory", "--dist", _SKEWED, "--n", str(len(_SCALES)), "--x", "1.2",
                      "--scales", "scales.json"],
    "theory_rademacher_scales": ["theory", "--dist", _RADEMACHER_03, "--n", str(len(_SCALES)),
                                 "--x", "1.2", "--scales", "scales.json"],
    "enumerate_rademacher": ["enumerate", "--dist", "rademacher", "--n", "4", "--x", "1"],
    "enumerate_twopoint": ["enumerate", "--dist", _TWOPOINT, "--n", "12", "--x", "1.3"],
    "enumerate_skewed": ["enumerate", "--dist", _SKEWED, "--n", "10", "--x", "0.7"],
    "enumerate_rademacher_x0": ["enumerate", "--dist", _RADEMACHER_03, "--n", "6", "--x", "0"],
    "simulate_rademacher_naive": _sim("rademacher", 16, "1.5", "naive"),
    "simulate_rademacher_tilted": _sim("rademacher", 16, "2", "tilted"),
    "simulate_rademacher_scaled_tilted": _sim('{"family": "rademacher", "scale": 0.5}', 32, "2",
                                              "tilted"),
    "simulate_twopoint_naive": _sim(_TWOPOINT, 10, "1", "naive", "--workers", "2"),
    "simulate_twopoint_tilted": _sim(_TWOPOINT, 20, "1.5", "tilted"),
    "simulate_uniform_tilted": _sim(_UNIFORM, 32, "2", "tilted"),
    "simulate_exponential_naive": _sim(_EXPONENTIAL, 16, "1.5", "naive"),
    "simulate_student_t_naive": _sim(_STUDENT, 16, "1", "naive"),
    "sweep_rademacher_lattice": _sweep('{"family": "rademacher"}', [4, 16, 64], [0.0, 1.0, 2.5]),
    "sweep_twopoint_dp": _sweep(_SKEWED, [4, 12, 30], [0.5, 1.5]),
    "sweep_uniform_mc_fallback": _sweep(_UNIFORM, [8, 16, 32], [1.0], mc_samples=4096),
    "sweep_rademacher_mc_tilted": _sweep('{"family": "rademacher"}', [16, 32, 64], [1.5],
                                         engine="mc", mc_method="tilted", mc_samples=4096),
    "sweep_rademacher_mc_naive": _sweep(_RADEMACHER_03, [8, 16], [0.0, 1.0], engine="mc",
                                        mc_method="naive", mc_samples=4096),
}

DIGESTS = {
    "theory_rademacher": "3c09455076a77da2db4cb8b0083bc60ab2eae700a1aea402b3efc72495ca9092",
    "theory_twopoint": "35ecc216981583a5a062590229557177cda08890c30cad9ff9145975a961e143",
    "theory_uniform": "f6385ab664a75dbc49731a6baf90cfeeb802ce6c2c305fea2726d7c298ba9f53",
    "theory_exponential": "7084163534ef9ddb0adf01030f8482e57f43aca83d39881ba60609a9bbbe6d01",
    "theory_student_t": "7e313a39f624bdf60489458c48c71d99c5b7fd523a255ca399a17f87dd6e9f6c",
    "theory_scales": "e9adad34e88102a2cd23c2b036616267c972af02ff442056df1ca235c6153175",
    "theory_rademacher_scales": "b37f0b55283b062ab1e9f63680fa05512e7b39ecc956a0620e8c35e374f43ce8",
    "enumerate_rademacher": "26ba4a7b26ce671c51de6d13dc0cb590e18c9fd855767cef145b9b0aa7e2b976",
    "enumerate_twopoint": "cd28c6f148597a81548cbacd4025f095cca53372887c3aa136a1017903532fd7",
    "enumerate_skewed": "45f24e0e4e0185689e619c9f24cb457e553a6d96c119be16115cfdd1ab6b99cf",
    "enumerate_rademacher_x0": "5c94929fc8133dd27dadfe41f121fb367eb79a2869b45d3d04811e8f8fe34e5a",
    "simulate_rademacher_naive": "d143805ce1bf2e3c3911732bbdbaa261df410c07adf620706696bdbc7a8b4b95",
    "simulate_rademacher_tilted": "ec08e49984b714654b828a276167d3ebda786f57771a1fac737335f7879d0be2",
    "simulate_rademacher_scaled_tilted": "51ed8abf87d3bbed170671df9d520d7fa4cc55b9bd66f4f9f5eaba164da94e61",
    "simulate_twopoint_naive": "70f18cdc54a12e3ae3f19b0146a9f0da103d713adddc0592df014db0ecae8758",
    "simulate_twopoint_tilted": "a5b741854e45bf668ec376eae3da6b398fbfb763b5b0be90f1ab5118469d99ae",
    "simulate_uniform_tilted": "4f5a78a89c68d1d897047389a8b23b57dd75cafc18068e9a6ff8d7dd7da450b8",
    "simulate_exponential_naive": "947983763338abb63b3e6597d2fc3af43da83d01ed40578829f9607a1968fbc0",
    "simulate_student_t_naive": "7671b9d231f11c286f2ca8c19897c30e0a1e9c904cdf91b2a13b1b0b485d8008",
    "sweep_rademacher_lattice": "5c6ae1c102fb689cada1e687dd0cd55d1a30ac01bf9ef82194da73b153615265",
    "sweep_rademacher_lattice.csv": "37c4339b9fea8bfc04041f34c40ce748b44eb34a3009dedb6bc7ad4cd990e516",
    "sweep_twopoint_dp": "8b699aedea93f7bfab5bebe99260d3d59ec961dbda20abd0259114a774ed4d5e",
    "sweep_twopoint_dp.csv": "c69b97930b81653c732b81110a7ca1befecae297a625fee767534e29b72e038a",
    "sweep_uniform_mc_fallback": "1feff3bd414ee34c569ae1622d4c10dd467e18c45e9f51dc851176599d064986",
    "sweep_uniform_mc_fallback.csv": "5690ddc6d3818e34d7584ad425379f7d104707603737bec96408343a75d5ccb7",
    "sweep_rademacher_mc_tilted": "f1ed048ee3fb69512925cd1799c6a6ea167ad79fb6ba0624ffc9af0ccf274fea",
    "sweep_rademacher_mc_tilted.csv": "19386bb8ce48d83e9dde903115d75770a10aca0c54caeca2b9e9a5e04daef2c9",
    "sweep_rademacher_mc_naive": "d478ad0eafbb33e9278a5468ed7c5bb2f42ccac9fe54afae8bcdbf05de5d6475",
    "sweep_rademacher_mc_naive.csv": "6dd0b12b076f646706090b7e8e20fe4f9440c59ba1fa2cb3813b3b9cc9b94c92",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_probe(name: str, workdir: str) -> dict:
    """{digest name: sha256} of one probe, run with ``workdir`` as the
    current directory; a sweep also pins its CSV."""
    probe = PROBES[name]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with open("scales.json", "w") as fh:
            json.dump(_SCALES, fh)
        if isinstance(probe, dict):
            with open("cfg.json", "w") as fh:
                json.dump(probe, fh)
            argv = ["sweep", "--config", "cfg.json"]
        else:
            argv = probe
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, (name, code)
        got = {name: _sha(out.getvalue().encode())}
        if isinstance(probe, dict):
            with open("s.csv", "rb") as fh:
                got[name + ".csv"] = _sha(fh.read())
        return got
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(PROBES))
def test_cli_output_bytes_are_pinned(name, tmp_path):
    got = run_probe(name, str(tmp_path))
    assert got == {k: DIGESTS[k] for k in got}


if __name__ == "__main__":
    for probe_name in PROBES:
        with tempfile.TemporaryDirectory() as tmp:
            for key, digest in run_probe(probe_name, tmp).items():
                print(f'    "{key}": "{digest}",')
