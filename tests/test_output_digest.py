"""The output-digest script's comparison of two dump directories."""

import importlib.util
from pathlib import Path

import numpy as np

DIGEST_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
# collect() rebuilds every output of a checkout, so only compare() runs here
spec = importlib.util.spec_from_file_location("output_digest", DIGEST_SCRIPT)
digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest)

HEAD = b"SystemParams(gamma=0.4) gamma t=1.0 h=0.0001\n"


def write_dump(path: Path, d_rho: np.ndarray, extra: bool = False) -> Path:
    path.mkdir()
    (path / "000.out").write_bytes(b"['evolve']\n0\nt,rho\n0.5,0.25\n")
    (path / "001.d_rho.out").write_bytes(HEAD + f"{d_rho.dtype} {d_rho.shape}".encode()
                                         + d_rho.tobytes())
    if extra:
        (path / "002.out").write_bytes(b"spectral_decompose bell\n")
    return path


def test_identical_dumps_differ_nowhere(tmp_path, capsys):
    a = write_dump(tmp_path / "a", np.array([1.0, 2.0]))
    b = write_dump(tmp_path / "b", np.array([1.0, 2.0]))
    assert digest.compare(a, b) == 0
    assert capsys.readouterr().out == "0 of 2 outputs differ\n"


def test_a_changed_number_is_listed_with_its_relative_change(tmp_path, capsys):
    a = write_dump(tmp_path / "a", np.array([1.0, 2.0]))
    b = write_dump(tmp_path / "b", np.array([1.0, 2.5]))
    assert digest.compare(a, b) == 1
    assert capsys.readouterr().out == (
        f"001 d_rho {HEAD.decode().strip()} max rel change 2.000e-01\n"
        "1 of 2 outputs differ\n")


def test_an_output_of_one_dump_only_is_listed(tmp_path, capsys):
    a = write_dump(tmp_path / "a", np.array([1.0, 2.0]))
    b = write_dump(tmp_path / "b", np.array([1.0, 2.0]), extra=True)
    assert digest.compare(a, b) == 1
    assert capsys.readouterr().out == f"002 only in {b}\n1 of 3 outputs differ\n"
