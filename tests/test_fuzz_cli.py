"""Fuzz the command line: generated logs and flag values never end in a traceback.

Every outcome is exit 0, or exit 1 (usage/config) or 2 (data) with exactly
one line on stderr.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_running_example

from habitminer.cli import main
from habitminer.synth import format_trace

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_FIELD = st.one_of(
    st.sampled_from([
        "08:00", "23:59:59", "24:00", "7:5", "2024-03-05T08:00:00+05:00", "2024-03-05",
        "0001-01-01T00:00:00", "9999-12-31T23:59:59", "ON", "OFF", "nan", "inf", "--", "",
    ]),
    st.floats().map(repr),
    st.text(alphabet="abc019:-.T +eninf\t", max_size=12),
)


def _stamp(minute: int, sep: str) -> str:
    day, minute = divmod(minute, 1440)
    return f"2024-03-{5 + day:02d}{sep}{minute // 60:02d}:{minute % 60:02d}:00"


@st.composite
def _interval_line(draw):
    start = draw(st.integers(0, 3 * 1440 - 1))
    fields = [draw(st.sampled_from(["fridge", "tv", "lamp"])), _stamp(start, "T"),
              _stamp(start + draw(st.integers(0, 120)), "T"),
              draw(st.sampled_from(["kitchen", "hall"]))]
    if draw(st.booleans()):
        fields += [repr(draw(st.floats(-10, 10))), repr(draw(st.floats(-10, 10)))]
    return ",".join(fields)


@st.composite
def _casas_line(draw):
    return " ".join([_stamp(draw(st.integers(0, 3 * 1440 - 1)), " "),
                     draw(st.sampled_from(["M001", "M002", "D003"])),
                     draw(st.sampled_from(["ON", "OFF"]))])


@st.composite
def _odd_line(draw):
    """A line of either format with fields replaced, dropped or added."""
    fields = draw(st.one_of(_interval_line(), _casas_line())).replace(",", " ").split()
    sep = draw(st.sampled_from([",", " "]))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(fields)))
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "add" or at == len(fields):
            fields.insert(at, draw(_FIELD))
        elif action == "drop":
            del fields[at]
        else:
            fields[at] = draw(_FIELD)
    return sep.join(fields)


@st.composite
def _log(draw):
    fmt = draw(st.sampled_from(["interval", "casas"]))
    good = _interval_line() if fmt == "interval" else _casas_line()
    lines = draw(st.lists(good, max_size=10))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_odd_line()))
    # a short binary tail is often not UTF-8
    tail = draw(st.sampled_from([b"", b"", b"\n"]) | st.binary(max_size=3))
    return fmt, "\n".join(lines).encode() + tail


def _run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code:
        assert err.count("\n") == 1, (argv, err)
    return code


@FUZZ
@given(log=_log())
def test_fuzz_log_lines(capsys, log):
    fmt, data = log
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.txt"
        path.write_bytes(data)
        for command in ("ingest", "run"):
            _run_cli(capsys, command, path, "--format", fmt, "--outdir", Path(tmp) / command,
                     "--minsup", "1", "--k", "1")


_FLOAT_FLAGS = ["minsig", "minpro", "w1", "w2", "zeta", "min-p", "window", "epsilon",
                "involvement"]


@FUZZ
@given(
    values=st.dictionaries(st.sampled_from(_FLOAT_FLAGS), st.floats(0, 1) | st.floats(),
                           max_size=3),
    y_weights=st.none() | _FIELD | st.one_of(
        st.lists(st.floats(0, 10), min_size=3, max_size=3), st.lists(st.floats(), max_size=4)
    ).map(lambda ws: ",".join(map(repr, ws))),
)
def test_fuzz_config_flags(capsys, values, y_weights):
    flags = [f"--{name}={value!r}" for name, value in values.items()]
    if y_weights is not None:
        flags.append(f"--y-weights={y_weights}")
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        trace.write_text(format_trace(build_running_example()))
        base = ["--outdir", Path(tmp) / "artifacts", "--minsup", "2", "--k", "2", *flags]
        _run_cli(capsys, "run", trace, *base)
        _run_cli(capsys, "evaluate", trace, *base)
