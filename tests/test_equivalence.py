"""scripts/equivalence.py: two dumps of one tree agree, a changed entry shows,
and dumps from two BLAS kernels never agree."""

import importlib.util
import pickle
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("equivalence", ROOT / "scripts" / "equivalence.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dumps_of_this_tree_agree_and_a_perturbed_entry_is_caught(tmp_path, capsys):
    eq = _script()
    a, b = tmp_path / "a.pkl", tmp_path / "b.pkl"
    first = eq.dump(ROOT, a, quick=True)
    assert eq.dump(ROOT, b, quick=True) == first
    assert any(k.startswith("restore_batch") for k in first)
    assert any(k.startswith("reject") and isinstance(v, str) for k, v in first.items())
    assert first["cli restore disi-g"] == "exit 0\n"
    assert first["cli restore disi-g g.csv"].startswith(b"x_1,x_2\r\n")
    assert first[eq.ENVIRONMENT] == eq.environment()
    capsys.readouterr()
    eq.main(["compare", str(a), str(b)])
    assert capsys.readouterr().out.splitlines()[-1] == f"0 of {len(first)} entries differ"

    name = next(k for k in first if k.startswith("restore_batch") and not isinstance(first[k], str))
    dtype, shape, raw = first[name]
    nudged = bytearray(raw)
    nudged[0] ^= 1  # the lowest bit of the first value's mantissa
    b.write_bytes(pickle.dumps({**first, name: (dtype, shape, bytes(nudged))}))
    eq.main(["compare", str(a), str(b)])
    out = capsys.readouterr().out.splitlines()
    assert out == [f"differs: {name}", f"1 of {len(first)} entries differ"]


def test_kernel_mismatch_is_named_first_and_the_dumps_never_agree(tmp_path, capsys):
    """Dumps whose entries agree but whose OpenBLAS kernels differ are
    reported with the two kernels on the first line and one differing entry."""
    eq = _script()
    env = eq.environment()
    assert env["numpy"] == np.__version__ and {"kernel", "blas"} <= env.keys()
    same = {"restore_batch x": ("<f8", (1,), bytes(8))}
    a, b = tmp_path / "a.pkl", tmp_path / "b.pkl"
    a.write_bytes(pickle.dumps({eq.ENVIRONMENT: {**env, "kernel": "SkylakeX"}, **same}))
    b.write_bytes(pickle.dumps({eq.ENVIRONMENT: {**env, "kernel": "Haswell"}, **same}))
    eq.main(["compare", str(a), str(b)])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("kernel mismatch: SkylakeX vs Haswell")
    assert out[1:] == [f"differs: {eq.ENVIRONMENT}", "1 of 2 entries differ"]
