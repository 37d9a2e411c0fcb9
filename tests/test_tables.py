"""The one text-table format every cdkit file uses.

``write_table`` and ``read_table`` in ``cd_core`` carry every CSV the toolkit
writes or reads.  The pinned files below are the exact bytes each writer
produced before the writers shared one: a header row, ``%.17g`` cells
(integers print as themselves) and CRLF line ends.  A family CD's file is
the one exception: its spec line alone, pinned here too.
"""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cdkit.bootstrap import ReplicateSet, dump_replicates
from cdkit.cd_core import (
    grid_cd,
    load_cd_csv,
    location_scale_cd,
    read_table,
    sample_cd,
    save_cd_csv,
    write_table,
)
from cdkit.compare import dump_slopes
from cdkit.errors import ParameterDomainError
from cdkit.likelihood import ProfileCurve, dump_profile
from cdkit.multivariate import MultiCD, load_cloud_csv, save_cloud_csv
from cdkit.probkernel import StudentT
from cdkit.simlab import dump_u_values

# ---------------------------------------------------------------------------
# every writer, byte for byte

_PROFILE = ProfileCurve(grid=np.array([-1.0, 0.0, 2.5]), ell_star=np.array([-0.5, 0.0, -3.125]),
                        theta_hat=0.0, i_n=1.0, n=4)
_REPS = dict(n=5, theta_hat=0.2, theta=np.array([0.1, 0.7]))

WRITERS = {
    "save_cd_csv grid": (
        lambda p: save_cd_csv(grid_cd([0.0, 0.5, 1.0], [0.0, 0.25, 1.0]), p),
        b"theta,H\r\n0,0\r\n0.5,0.25\r\n1,1\r\n"),
    "save_cd_csv sample": (
        lambda p: save_cd_csv(sample_cd([0.1, -2.0], [0.75, 0.25]), p),
        b"atom,weight\r\n-2,0.25\r\n0.10000000000000001,0.75\r\n"),
    "save_cd_csv family": (
        lambda p: save_cd_csv(location_scale_cd(StudentT(9), 1.5, 0.25), p),
        b'# cdkit-family {"family": "location-scale", "loc": 1.5, "scale": 0.25, '
        b'"df": 9.0}\r\n'),
    "dump_u_values": (
        lambda p: dump_u_values(SimpleNamespace(u_values=np.array([0.25, 1 / 3, 0.0])), p),
        b"replicate,u\r\n0,0.25\r\n1,0.33333333333333331\r\n2,0\r\n"),
    "dump_slopes": (
        lambda p: dump_slopes(p, [(10, 0.5, -0.125, -0.129), (3, 5.0, -math.inf, -math.inf)]),
        b"n,eps,left_slope,right_slope\r\n10,0.5,-0.125,-0.129\r\n3,5,-inf,-inf\r\n"),
    "dump_profile": (
        lambda p: dump_profile(_PROFILE, p),
        b"theta,ell_star\r\n-1,-0.5\r\n0,0\r\n2.5,-3.125\r\n"),
    "dump_replicates": (
        lambda p: dump_replicates(ReplicateSet(se_hat=None, se=None, excluded=0, **_REPS), p),
        b"replicate,theta\r\n0,0.10000000000000001\r\n1,0.69999999999999996\r\n"),
    "dump_replicates with se": (
        lambda p: dump_replicates(ReplicateSet(se_hat=0.1, se=np.array([0.05, 1e-300]),
                                               excluded=1, **_REPS), p),
        b"replicate,theta,se\r\n0,0.10000000000000001,0.050000000000000003\r\n"
        b"1,0.69999999999999996,1e-300\r\n"),
}


@pytest.mark.parametrize("name", list(WRITERS))
def test_writer_bytes_are_pinned(tmp_path, name):
    write, want = WRITERS[name]
    path = tmp_path / "table.csv"
    write(path)
    assert path.read_bytes() == want


def _cloud():
    i = np.arange(1000.0)
    return MultiCD(np.column_stack([i / 8.0, -i, i / 3.0]))


def test_save_cloud_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "cloud.csv"
    save_cloud_csv(_cloud(), path)
    body = path.read_bytes()
    assert body.startswith(b"x1,x2,x3\r\n0,-0,0\r\n0.125,-1,0.33333333333333331\r\n")
    assert body.endswith(b"\r\n124.875,-999,333\r\n")
    assert len(body) == 25894
    assert hashlib.sha256(body).hexdigest() == (
        "f7ae6db27f425ea8b7620cab8f27ac269c4a319581b8bb8149af496741dbfcd6")


# ---------------------------------------------------------------------------
# read_table

def test_read_table_round_trips_write_table(tmp_path):
    path = tmp_path / "t.csv"
    cols = [np.array([0.1, 1e-300, -2.5]), np.array([np.inf, 3.0, 1 / 3])]
    write_table(path, ["a", "b"], cols)
    header, body = read_table(path)
    assert header == ["a", "b"]
    assert np.array_equal(body, np.column_stack(cols))


@pytest.mark.parametrize("text, header, rows", [
    ("x,y\n1,2\n3,4\n", ["x", "y"], [[1, 2], [3, 4]]),
    ("1,2\n3,4\n", None, [[1, 2], [3, 4]]),
    ("\n\nx,y\r\n\r\n1,2\n\n3,4\n\n", ["x", "y"], [[1, 2], [3, 4]]),
    ("1.5\n\n-2e-3\ninf\n", None, [[1.5], [-2e-3], [math.inf]]),
    ("theta,1\n0,0\n", ["theta", "1"], [[0, 0]]),
])
def test_read_table_skips_blank_lines_and_finds_the_header(tmp_path, text, header, rows):
    path = tmp_path / "t.csv"
    path.write_text(text)
    got_header, body = read_table(path)
    assert got_header == header
    assert np.array_equal(body, np.array(rows, dtype=float))


@pytest.mark.parametrize("text, match", [
    ("", "no data rows"),
    ("\n\n", "no data rows"),
    ("x,y\n", "no data rows"),
    ("x,y\n\n", "no data rows"),
    ("1,2\n3\n", "column count"),
    ("x,y\n1,2,3\n", "column count"),
    ("x\n1,2\n3,4\n", "column count"),
    ("x,y\n1,2\n3,oops\n", "oops"),
])
def test_read_table_errors_name_the_file(tmp_path, text, match):
    path = tmp_path / "bad-table.csv"
    path.write_text(text)
    with pytest.raises(ParameterDomainError, match=match) as info:
        read_table(path)
    assert "bad-table.csv" in str(info.value)


# ---------------------------------------------------------------------------
# the file readers on top of it

def test_headerless_cloud_keeps_its_first_row(tmp_path):
    mcd = _cloud()
    path = tmp_path / "cloud.csv"
    save_cloud_csv(mcd, path)
    bare = tmp_path / "bare.csv"
    bare.write_bytes(path.read_bytes().split(b"\r\n", 1)[1])
    for p in (path, bare):
        assert np.array_equal(load_cloud_csv(p).cloud, mcd.cloud)


def test_cd_file_with_blank_lines_loads(tmp_path):
    path = tmp_path / "cd.csv"
    path.write_text("\ntheta,H\n\n0,0\n0.5,0.25\n\n1,1\n\n")
    cd = load_cd_csv(path)
    assert cd.kind == "grid"
    assert np.array_equal(cd.theta, [0.0, 0.5, 1.0])
    assert np.array_equal(cd.values, [0.0, 0.25, 1.0])


@pytest.mark.parametrize("text", ["0,0\n1,1\n", "theta,H,x\n0,0,0\n1,1,1\n", "x,y\n0,0\n1,1\n"])
def test_cd_file_needs_a_known_header(tmp_path, text):
    path = tmp_path / "odd-cd.csv"
    path.write_text(text)
    with pytest.raises(ParameterDomainError, match="odd-cd.csv"):
        load_cd_csv(path)
