"""The chain side loads no field code: `import chainent`, `import
chainent.cli` and the `sweep` and `correlations` commands leave scipy and
`chainent.field` unloaded in a fresh process.  The field names resolve on
first access, and `field` and `validate` print the same bytes in a fresh
process as in this one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainent
from chainent import cli

#: modules only the field side needs
FIELD_MODULES = ("scipy", "scipy.special", "chainent.field")

SRC = str(Path(chainent.__file__).resolve().parents[1])

#: each stage runs after the ones before it, in one fresh process
STAGES = (
    ("import chainent", "import chainent"),
    ("import chainent.cli", "from chainent import cli"),
    ("sweep", "cli.main(['sweep', '--alphas', '0.5,0.9', '--m', '1..2', "
              "'--s', '1..3', '--d', '0..1', '--out', os.devnull])"),
    ("correlations", "cli.main(['correlations', '--alpha', '0.9', "
                     "'--l-max', '20', '--oracle-n', '256', "
                     "'--out', os.devnull])"),
)

FIELD = ["field", "--mass", "1", "--length", "1", "--r", "0,0.5,1,1.05,2,20"]
VALIDATE = ["validate", "--oracle-n", "4096"]


def fresh_python(code: str, *args: str,
                 **environ: str) -> subprocess.CompletedProcess:
    """Run `code` with `args` in a fresh interpreter that imports chainent
    from this checkout, with `environ` added to its environment."""
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture(scope="module")
def loaded_after_stage():
    """stage -> the FIELD_MODULES loaded once it has run."""
    lines = ["import json, os, sys", "loaded = {}"]
    for name, statement in STAGES:
        lines += [statement, f"loaded[{name!r}] = [m for m in "
                             f"{FIELD_MODULES!r} if m in sys.modules]"]
    lines.append("print(json.dumps(loaded))")
    done = fresh_python("\n".join(lines))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("stage", [name for name, _ in STAGES])
def test_chain_path_loads_no_field_code(loaded_after_stage, stage):
    assert loaded_after_stage[stage] == []


@pytest.mark.parametrize("argv", [FIELD, VALIDATE], ids=" ".join)
def test_field_commands_print_the_same_bytes_fresh(argv, capsys):
    code = cli.main(argv)
    in_process = capsys.readouterr().out
    fresh = fresh_python(f"import sys\nfrom chainent import cli\n"
                         f"code = cli.main({argv!r})\n"
                         f"assert 'chainent.field' in sys.modules\n"
                         f"sys.exit(code)")
    assert (fresh.returncode, fresh.stdout) == (code, in_process)


def test_field_names_resolve_to_the_field_module():
    import chainent.field
    for name in ("FieldRegionSpec", "d_phi", "d_pi", "field_covariance",
                 "field_negativity"):
        assert getattr(chainent, name) is getattr(chainent.field, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from chainent import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(chainent.__all__)
    assert len(namespace) == 25


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chainent.no_such_name
    assert not hasattr(chainent, "no_such_name")
