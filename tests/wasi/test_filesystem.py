"""The WASI-FS extension (paper future work): files over Trusted Storage."""

import pytest

from repro.walc import compile_source
from repro.wasi import WasiEnvironment, WasiFilesystem, build_wasi_imports, errno
from repro.wasi.filesystem import O_CREAT, O_EXCL, O_TRUNC, PREOPEN_FD
from repro.wasm import AotCompiler

# A Wasm application exercising the file API end to end: create a file,
# write, seek back, read, report.
_FS_APP = """
memory 2;
data 512 (110, 111, 116, 101, 115, 46, 116, 120, 116);  // "notes.txt"
data 600 (104, 105, 32, 116, 101, 101);                  // "hi tee"

import fn wasi_snapshot_preview1.path_open(a: i32, b: i32, c: i32, d: i32,
                                           e: i32, f: i64, g: i64, h: i32,
                                           i: i32) -> i32;
import fn wasi_snapshot_preview1.fd_write(a: i32, b: i32, c: i32, d: i32) -> i32;
import fn wasi_snapshot_preview1.fd_read(a: i32, b: i32, c: i32, d: i32) -> i32;
import fn wasi_snapshot_preview1.fd_seek(a: i32, b: i64, c: i32, d: i32) -> i32;
import fn wasi_snapshot_preview1.fd_close(a: i32) -> i32;
import fn wasi_snapshot_preview1.fd_filestat_get(a: i32, b: i32) -> i32;

fn open_notes(oflags: i32) -> i32 {
  // dirfd=3, path at 512 len 9, rights/flags zero, result at 64
  var rc: i32 = path_open(3, 0, 512, 9, oflags, 0L, 0L, 0, 64);
  if (rc != 0) { return 0 - rc; }
  return load_i32(64);
}

export fn write_file() -> i32 {
  var fd: i32 = open_notes(1);  // O_CREAT
  if (fd < 0) { return fd; }
  store_i32(0, 600);  // iov base
  store_i32(4, 6);    // iov len
  var rc: i32 = fd_write(fd, 0, 1, 16);
  if (rc != 0) { return 0 - rc; }
  fd_close(fd);
  return load_i32(16);  // bytes written
}

export fn read_file() -> i32 {
  var fd: i32 = open_notes(0);
  if (fd < 0) { return fd; }
  fd_seek(fd, 3L, 0, 32);
  store_i32(0, 800);  // read buffer
  store_i32(4, 16);
  var rc: i32 = fd_read(fd, 0, 1, 16);
  if (rc != 0) { return 0 - rc; }
  fd_close(fd);
  // bytes read * 256 + first byte
  return load_i32(16) * 256 + load_u8(800);
}

export fn file_size() -> i64 {
  var fd: i32 = open_notes(0);
  if (fd < 0) { return -1L; }
  fd_filestat_get(fd, 128);
  fd_close(fd);
  return load_i64(128 + 32);  // filestat.size
}
"""


def _instantiate(filesystem):
    env = WasiEnvironment(filesystem=filesystem)
    binary = compile_source(_FS_APP)
    return AotCompiler().instantiate(binary, build_wasi_imports(env)), env


# -- the WasiFilesystem object itself -------------------------------------------


def test_open_create_write_read_roundtrip():
    fs = WasiFilesystem()
    fd = fs.open("f.txt", O_CREAT)
    assert fd > PREOPEN_FD
    assert fs.write(fd, b"hello") == 5
    fs.seek(fd, 0, 0)
    assert fs.read(fd, 10) == b"hello"
    assert fs.close(fd)


def test_open_missing_without_create():
    fs = WasiFilesystem()
    assert fs.open("missing", 0) < 0


def test_excl_rejects_existing():
    fs = WasiFilesystem()
    fs.write_file("f", b"x")
    assert fs.open("f", O_CREAT | O_EXCL) < 0


def test_trunc_empties_file():
    fs = WasiFilesystem()
    fs.write_file("f", b"content")
    fd = fs.open("f", O_TRUNC)
    assert fs.read(fd, 100) == b""


def test_sparse_write_zero_fills():
    fs = WasiFilesystem()
    fd = fs.open("f", O_CREAT)
    fs.seek(fd, 4, 0)
    fs.write(fd, b"x")
    assert fs.read_file("f") == b"\x00\x00\x00\x00x"


def test_unlink():
    fs = WasiFilesystem()
    fs.write_file("f", b"x")
    assert fs.unlink("f")
    assert not fs.unlink("f")
    assert not fs.exists("f")


def test_listdir_sorted():
    fs = WasiFilesystem()
    for name in ("b", "a", "c"):
        fs.write_file(name, b"")
    assert fs.listdir() == ["a", "b", "c"]


# -- through Wasm ------------------------------------------------------------------


def test_wasm_app_reads_and_writes_files():
    instance, _env = _instantiate(WasiFilesystem())
    assert instance.invoke("write_file") == 6
    # Read from offset 3: "tee", first byte 't' = 116.
    assert instance.invoke("read_file") == 3 * 256 + ord("t")
    assert instance.invoke("file_size") == 6


def test_host_sees_wasm_written_file():
    fs = WasiFilesystem()
    instance, _env = _instantiate(fs)
    instance.invoke("write_file")
    assert fs.read_file("notes.txt") == b"hi tee"


def test_without_extension_file_calls_trap():
    from repro.errors import TrapError

    instance, _env = _instantiate(None)
    with pytest.raises(TrapError, match="not implemented"):
        instance.invoke("write_file")


# -- inside WaTZ, backed by Trusted Storage ----------------------------------------


def test_files_persist_across_watz_sessions(device):
    binary = compile_source(_FS_APP)
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    loaded = device.load_wasm(session, binary, filesystem=True)
    assert device.run_wasm(session, loaded["app"], "write_file") == 6
    session.close()

    # A new session, a fresh Wasm instance: the file is still there,
    # because it lives in the TA's trusted storage.
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    loaded = device.load_wasm(session, binary, filesystem=True)
    assert device.run_wasm(session, loaded["app"], "file_size") == 6
    assert device.run_wasm(session, loaded["app"], "read_file") \
        == 3 * 256 + ord("t")
    session.close()


def test_files_are_sealed_to_the_app_that_wrote_them(device):
    """Another binary loaded into the same WaTZ image opens none of the
    files: they are stored under the writer's measurement."""
    binary = compile_source(_FS_APP)
    other = compile_source(_FS_APP + "export fn other() -> i32 { return 1; }")
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    writer = device.load_wasm(session, binary, filesystem=True)
    assert device.run_wasm(session, writer["app"], "write_file") == 6
    reader = device.load_wasm(session, other, filesystem=True)
    assert device.run_wasm(session, reader["app"], "read_file") \
        == (-errno.ENOENT) & 0xFFFFFFFF
    assert device.run_wasm(session, writer["app"], "read_file") \
        == 3 * 256 + ord("t")
    session.close()


@pytest.mark.parametrize("engine_name", ["interpreter", "aot"])
def test_path_not_utf8_is_einval(device, engine_name):
    """A path that is not UTF-8 is the module's error: every path call
    returns EINVAL instead of escaping the TA."""
    app = compile_source("""
memory 1;
data 512 (255, 254, 253);
import fn wasi_snapshot_preview1.path_open(a: i32, b: i32, c: i32, d: i32,
                                           e: i32, f: i64, g: i64, h: i32,
                                           i: i32) -> i32;
import fn wasi_snapshot_preview1.path_filestat_get(a: i32, b: i32, c: i32, d: i32, e: i32) -> i32;
import fn wasi_snapshot_preview1.path_unlink_file(a: i32, b: i32, c: i32) -> i32;
export fn open() -> i32 { return path_open(3, 0, 512, 3, 1, 0L, 0L, 0, 64); }
export fn stat() -> i32 { return path_filestat_get(3, 0, 512, 3, 128); }
export fn unlink() -> i32 { return path_unlink_file(3, 512, 3); }
""")
    session = device.open_watz(heap_size=4 * 1024 * 1024, engine=engine_name)
    loaded = device.load_wasm(session, app, filesystem=True)
    for call in ("open", "stat", "unlink"):
        assert device.run_wasm(session, loaded["app"], call) == errno.EINVAL


def test_storage_is_isolated_per_ta_uuid(device):
    """§VII's concern: another TA must not see these files."""
    binary = compile_source(_FS_APP)
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    loaded = device.load_wasm(session, binary, filesystem=True)
    device.run_wasm(session, loaded["app"], "write_file")
    session.close()

    watz_objects = device.kernel.trusted_storage.list_ids(
        "watz-runtime-4194304-aot")
    assert any("notes.txt" in object_id for object_id in watz_objects)
    assert device.kernel.trusted_storage.list_ids("some-other-ta") == []


def test_trusted_storage_api_direct(device):
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    api = session.api
    # Storage writes bump the hardware monotonic counters, which only the
    # secure world can touch — so run as a TA invocation would.
    with device.soc.enter_secure_world():
        api.storage_put("config", b"\x01\x02")
        assert api.storage_exists("config")
        assert api.storage_get("config") == b"\x01\x02"
        assert "config" in api.storage_list()
        api.storage_delete("config")
        assert not api.storage_exists("config")
