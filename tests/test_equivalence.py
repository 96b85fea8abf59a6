"""scripts/equivalence.py: two dumps of one tree agree, and a changed entry shows."""

import importlib.util
import pickle
from pathlib import Path

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
