"""The package runs on numpy alone: `import chainent`, `import chainent.cli`
and every command, the field ones too, leave scipy, numpy.ma and
numpy.polynomial unloaded in a fresh process, `field` and `validate` print
the same bytes in a fresh process as in this one, and lag counting, the
oracle's fold, validate, the largest sweep grid and the moments of a
layout past the moment budget stay small in one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainent
from chainent import cli

SRC = str(Path(chainent.__file__).resolve().parents[1])

FIELD = ["field", "--mass", "1", "--length", "1", "--r", "0,0.5,1,1.05,2,20"]
VALIDATE = ["validate", "--oracle-n", "4096"]
SWEEP_120 = ["sweep", "--alphas", "0.3,0.6", "--m", "1..3", "--s", "1..5",
             "--d", "0..3"]

#: each stage runs after the ones before it, in one fresh process
STAGES = (
    ("import chainent", "import chainent"),
    ("import chainent.cli", "from chainent import cli"),
    ("sweep", "cli.main(['sweep', '--alphas', '0.5,0.9', '--m', '1..2', "
              "'--s', '1..3', '--d', '0..1', '--out', os.devnull])"),
    ("correlations", "cli.main(['correlations', '--alpha', '0.9', "
                     "'--l-max', '20', '--oracle-n', '256', "
                     "'--out', os.devnull])"),
    ("field", f"cli.main({FIELD + ['--out', os.devnull]!r})"),
    ("validate", f"cli.main({VALIDATE + ['--out', os.devnull]!r})"),
)


def fresh_python(code: str, *args: str,
                 **environ: str) -> subprocess.CompletedProcess:
    """Run `code` with `args` in a fresh interpreter that imports chainent
    from this checkout, with `environ` added to its environment."""
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


#: modules no stage may load: scipy, an extra of the tests only, and two
#: numpy subpackages that numpy itself imports lazily, which cost a fresh
#: process milliseconds: numpy.ma (`np.unique` and `np.setdiff1d` import it
#: on their first call) and numpy.polynomial
UNLOADED = ("scipy", "numpy.ma", "numpy.polynomial")


@pytest.fixture(scope="module")
def loaded_after_stage():
    """stage -> the modules of `UNLOADED` loaded once it has run."""
    lines = ["import json, os, sys", "loaded = {}"]
    for name, statement in STAGES:
        lines += [statement, f"loaded[{name!r}] = [module for module in "
                             f"{UNLOADED!r} if module in sys.modules]"]
    lines.append("print(json.dumps(loaded))")
    done = fresh_python("\n".join(lines))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("stage", [name for name, _ in STAGES])
def test_stage_loads_no_scipy(loaded_after_stage, stage):
    assert "scipy" not in loaded_after_stage[stage]


@pytest.mark.parametrize("stage", [name for name, _ in STAGES])
def test_stage_loads_no_numpy_extras(loaded_after_stage, stage):
    assert not {"numpy.ma", "numpy.polynomial"} & set(
        loaded_after_stage[stage])


def test_the_float_kernel_loads_only_for_a_large_table():
    # a fresh process compiles each module it imports: `chainent.cli` and
    # a table below `render.RENDER_CROSSOVER` distinct floats leave the
    # kernel module out, and the 120-row sweep's 859 distinct floats load it
    done = fresh_python(
        "import os, sys\nfrom chainent import cli\nloaded = []\n"
        f"for argv in ({FIELD!r}, {SWEEP_120!r}):\n"
        "    loaded.append('chainent.digits' in sys.modules)\n"
        "    cli.main(argv + ['--out', os.devnull])\n"
        "print(loaded + ['chainent.digits' in sys.modules])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[False, False, True]"


@pytest.mark.parametrize("argv", [FIELD, VALIDATE], ids=" ".join)
def test_field_commands_print_the_same_bytes_fresh(argv, capsys):
    code = cli.main(argv)
    in_process = capsys.readouterr().out
    fresh = fresh_python(f"import sys\nfrom chainent import cli\n"
                         f"sys.exit(cli.main({argv!r}))")
    assert (fresh.returncode, fresh.stdout) == (code, in_process)


def peak_kib(statements: str) -> int:
    """VmHWM in KiB of a fresh process once it has run `statements`: the
    process's own peak, as Linux carries ru_maxrss over from the parent
    through exec."""
    done = fresh_python(
        f"import re\n{statements}\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read())[1])")
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
def test_lag_counts_of_many_subblocks_stay_small():
    # the moments hold O(m) spikes and O(span) head sums; an m x 2m pair
    # count of these 5040 subblocks would peak past 400 MB
    assert peak_kib("from chainent import (BlockSpec, correlation_table,\n"
                    "                      covariance_of_blocks)\n"
                    "covariance_of_blocks(correlation_table(0.5, 10079),\n"
                    "                     BlockSpec(5040, 1, 0))"
                    ) < 100 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
def test_oracle_fold_to_the_last_lag_stays_small():
    # at l_max = N - 1 on the largest ring the full-length rfft sets the
    # peak, 542 MiB; index arrays for the fold would lift it past 620 MiB
    assert peak_kib(
        "from chainent.correlations import (MAX_ORACLE_SITES as N,\n"
        "                                   finite_correlation_table)\n"
        "finite_correlation_table(0.5, N, N - 1)") < 580 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
def test_validate_stays_small():
    # the oracle check's 2^20-site ring and its columns take 12 MiB while
    # the columns are copied, then its four couplings share the columns,
    # one buffer and one spectrum at a time; the process peaks near 45 MiB
    assert peak_kib("import os\nfrom chainent import cli\n"
                    "cli.main(['validate', '--out', os.devnull])"
                    ) < 48 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
def test_a_layout_past_the_moment_budget_stays_small():
    # each table row's 2^21 lags pass the moment budget alone, so the head
    # sums are made one row at a time, four arrays of 16 MiB; the process
    # peaks near 190 MiB, and all four rows at once would pass the bound
    assert peak_kib(
        "import os\nfrom chainent import cli\n"
        "cli.main(['sweep', '--alphas', '0.3,0.5', '--specs',\n"
        "          '1:1048576:0,1:1048575:1', '--out', os.devnull])"
    ) < 290 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
def test_a_layout_of_many_subblocks_makes_its_spikes_a_run_at_a_time():
    # the 1.5 million spikes a half of m = 500000 are made and contracted a
    # run within the moment budget at a time, so the process peaks near
    # 92 MiB; all of them at once would take it near 160 MiB
    assert peak_kib(
        "import os\nfrom chainent import cli\n"
        "cli.main(['sweep', '--alphas', '0.5', '--specs', '500000:1:0',\n"
        "          '--out', os.devnull])") < 120 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
def test_a_field_grid_of_overlapping_windows_stays_small():
    # 10^5 overlapping rows are evaluated 512 at a time, so the process
    # peaks near 85 MiB, as a loop over the rows did; all of them at once
    # would take it near 294 MiB
    assert peak_kib(
        "import os\nfrom chainent import cli\n"
        "cli.main(['field', '--mass', '1', '--length', '1', '--r',\n"
        "          '0..1:100000', '--out', os.devnull])") < 107 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
def test_a_sweep_of_the_largest_grid_stays_small():
    # 10^5 rows: the moments hold a few arrays of `MOMENT_CHUNK` floats at
    # a time, so the CSV text sets the peak, near 101 MiB
    assert peak_kib(
        "import os\nfrom chainent import cli\n"
        "cli.main(['sweep', '--alphas', '0.5', '--m', '1..10', '--s',\n"
        "          '1..100', '--d', '0..99', '--out', os.devnull])"
    ) < 126 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
def test_the_largest_grids_csv_takes_no_more_than_the_per_cell_text():
    # 10^5 rows rendered as one byte matrix in chunks: the distinct values'
    # bytes, one chunk and one copy of the text at a time peak near
    # 101 MiB; 123 MiB is the per-cell renderer's 117.1 MiB plus 5 %
    assert peak_kib(
        "import os\nfrom chainent import cli\n"
        "cli.main(['sweep', '--alphas', '0.5', '--m', '1..10', '--s',\n"
        "          '1..100', '--d', '0..99', '--out', os.devnull])"
    ) < 123 * 1024


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
