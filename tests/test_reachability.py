"""The reachability audit (``tests/reachability.py``) on a toy package.

Its hook runs in real child interpreters, and each of the four functions
must land in its class, so the audit cannot rot between the PRs that run it.
"""

import reachability

TOY = '''def entered():
    return 1


def never():
    return 2


def tested():
    return 3


def referenced():
    return 4


HANDLERS = {"late": referenced}
'''


def test_each_function_gets_its_class(tmp_path, monkeypatch):
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    (src / "repro" / "__init__.py").write_text("")
    (src / "repro" / "toy.py").write_text(TOY)
    (src / "sitecustomize.py").write_text(reachability.HOOK)
    monkeypatch.setattr(reachability, "PASSES", {
        "product": [["-c", "import repro.toy; repro.toy.entered()"]],
        "tests": [["-c", "import repro.toy; repro.toy.entered(); repro.toy.tested()"]],
    })
    entered = reachability.run_pass(tmp_path, tmp_path, "product")
    tested = reachability.run_pass(tmp_path, tmp_path, "tests")
    rows = reachability.classify(src, entered, tested)
    assert {name: (kind, referenced) for kind, referenced, _, _, name in rows} == {
        "entered": ("entered", False),
        "never": ("never", False),
        "tested": ("test-only", False),
        "referenced": ("never", True),
    }
    assert ("repro/toy.py:1", "entered", 2) in set(reachability.functions(src))
