"""WASI snapshot preview1 implementation over the GP Internal API.

This is the paper's *adaptation layer* (§III/§V): hosted Wasm applications
call standard WASI, and WaTZ maps each call onto whatever the trusted OS
offers. Following the paper's process, all 45 preview1 functions are
declared; the subset needed by the workloads is implemented, and the rest
trap with a clear message when called ("dummy functions throwing
exceptions").

``clock_time_get`` is the interesting one for the evaluation: from inside
the TEE it routes through the paper's nanosecond TEE_Time extension and a
kernel RPC to the normal world, charging the Fig. 3a latency; the WASI
dispatch itself adds the shim cost that separates the native-TA and Wasm
curves.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional

from repro.errors import TrapError
from repro.wasi import errno

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

CLOCK_REALTIME = 0
CLOCK_MONOTONIC = 1


class ProcExit(Exception):
    """Raised by ``proc_exit`` to unwind out of Wasm execution."""

    def __init__(self, code: int) -> None:
        super().__init__(f"proc_exit({code})")
        self.code = code


class WasiEnvironment:
    """Per-application WASI state.

    ``clock_ns`` and ``random_bytes`` are injected by the embedder: inside
    WaTZ they are bound to the GP API (and therefore pay the simulated
    secure-world costs); in the normal world they are bound to the plain
    REE clock.
    """

    def __init__(self,
                 args: Optional[List[str]] = None,
                 environ: Optional[List[str]] = None,
                 clock_ns: Optional[Callable[[], int]] = None,
                 random_bytes: Optional[Callable[[int], bytes]] = None,
                 wasi_dispatch: Optional[Callable[[], None]] = None,
                 filesystem=None) -> None:
        self.args = list(args or ["app.wasm"])
        self.environ = list(environ or [])
        self.clock_ns = clock_ns or (lambda: 0)
        self.random_bytes = random_bytes or (lambda n: b"\x00" * n)
        # Called on every WASI entry: charges the dispatch latency.
        self.wasi_dispatch = wasi_dispatch or (lambda: None)
        # Optional WASI-FS extension (paper future work); None keeps the
        # shipped behaviour where file-system calls trap.
        self.filesystem = filesystem
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.exit_code: Optional[int] = None

    def stdout_text(self) -> str:
        return self.stdout.decode("utf-8", errors="replace")


def _memory(instance):
    if instance.memory is None:
        raise TrapError("WASI call without a linear memory")
    return instance.memory


def _write_u32(instance, address: int, value: int) -> None:
    _memory(instance).write(address, _U32.pack(value & 0xFFFFFFFF))


def _write_u64(instance, address: int, value: int) -> None:
    _memory(instance).write(address, _U64.pack(value & 0xFFFFFFFFFFFFFFFF))


class WasiApi:
    """The 45 preview1 entry points, bound to one environment."""

    def __init__(self, env: WasiEnvironment) -> None:
        self.env = env

    # -- command-line and environment -----------------------------------------

    def args_sizes_get(self, instance, argc_ptr, buf_size_ptr):
        self.env.wasi_dispatch()
        blob = b"".join(a.encode() + b"\x00" for a in self.env.args)
        _write_u32(instance, argc_ptr, len(self.env.args))
        _write_u32(instance, buf_size_ptr, len(blob))
        return errno.SUCCESS

    def args_get(self, instance, argv_ptr, argv_buf_ptr):
        self.env.wasi_dispatch()
        memory = _memory(instance)
        offset = argv_buf_ptr
        for index, argument in enumerate(self.env.args):
            _write_u32(instance, argv_ptr + 4 * index, offset)
            raw = argument.encode() + b"\x00"
            memory.write(offset, raw)
            offset += len(raw)
        return errno.SUCCESS

    def environ_sizes_get(self, instance, count_ptr, buf_size_ptr):
        self.env.wasi_dispatch()
        blob = b"".join(e.encode() + b"\x00" for e in self.env.environ)
        _write_u32(instance, count_ptr, len(self.env.environ))
        _write_u32(instance, buf_size_ptr, len(blob))
        return errno.SUCCESS

    def environ_get(self, instance, environ_ptr, buf_ptr):
        self.env.wasi_dispatch()
        memory = _memory(instance)
        offset = buf_ptr
        for index, entry in enumerate(self.env.environ):
            _write_u32(instance, environ_ptr + 4 * index, offset)
            raw = entry.encode() + b"\x00"
            memory.write(offset, raw)
            offset += len(raw)
        return errno.SUCCESS

    # -- clocks -------------------------------------------------------------------

    def clock_res_get(self, instance, clock_id, resolution_ptr):
        self.env.wasi_dispatch()
        if clock_id not in (CLOCK_REALTIME, CLOCK_MONOTONIC):
            return errno.EINVAL
        _write_u64(instance, resolution_ptr, 1)  # 1 ns (the paper's extension)
        return errno.SUCCESS

    def clock_time_get(self, instance, clock_id, _precision, time_ptr):
        self.env.wasi_dispatch()
        if clock_id not in (CLOCK_REALTIME, CLOCK_MONOTONIC):
            return errno.EINVAL
        _write_u64(instance, time_ptr, self.env.clock_ns())
        return errno.SUCCESS

    # -- file descriptors (stdout/stderr only; no file system yet) -------------------

    def fd_write(self, instance, fd, iovs_ptr, iovs_len, nwritten_ptr):
        self.env.wasi_dispatch()
        if fd not in (1, 2):
            if self.env.filesystem is not None and fd > 3:
                from repro.wasi.filesystem import WasiFsApi

                return WasiFsApi(self.env).fd_write_file(
                    instance, fd, iovs_ptr, iovs_len, nwritten_ptr)
            return errno.EBADF
        memory = _memory(instance)
        sink = self.env.stdout if fd == 1 else self.env.stderr
        written = 0
        for index in range(iovs_len):
            base = _U32.unpack(memory.read(iovs_ptr + 8 * index, 4))[0]
            size = _U32.unpack(memory.read(iovs_ptr + 8 * index + 4, 4))[0]
            sink.extend(memory.read(base, size))
            written += size
        _write_u32(instance, nwritten_ptr, written)
        return errno.SUCCESS

    def fd_read(self, instance, fd, iovs_ptr, iovs_len, nread_ptr):
        self.env.wasi_dispatch()
        if fd != 0 and self.env.filesystem is not None:
            from repro.wasi.filesystem import WasiFsApi

            return WasiFsApi(self.env).fd_read(instance, fd, iovs_ptr,
                                               iovs_len, nread_ptr)
        if fd != 0:
            return errno.EBADF
        _write_u32(instance, nread_ptr, 0)  # stdin is empty in the TEE
        return errno.SUCCESS

    def fd_close(self, instance, fd):
        self.env.wasi_dispatch()
        if self.env.filesystem is not None:
            from repro.wasi.filesystem import WasiFsApi

            return WasiFsApi(self.env).fd_close(instance, fd)
        return errno.SUCCESS if fd in (0, 1, 2) else errno.EBADF

    def fd_seek(self, instance, fd, offset, whence, newoffset_ptr):
        self.env.wasi_dispatch()
        if self.env.filesystem is not None and fd > 3:
            from repro.wasi.filesystem import WasiFsApi

            return WasiFsApi(self.env).fd_seek(instance, fd, offset,
                                               whence, newoffset_ptr)
        if fd in (0, 1, 2):
            _write_u64(instance, newoffset_ptr, 0)
            return errno.SUCCESS
        return errno.EBADF

    def fd_fdstat_get(self, instance, fd, stat_ptr):
        self.env.wasi_dispatch()
        if fd not in (0, 1, 2):
            return errno.EBADF
        # filetype=character_device(2), flags=0, rights=all.
        _memory(instance).write(stat_ptr, struct.pack("<BxHIQQ", 2, 0, 0,
                                                      0xFFFFFFFF, 0xFFFFFFFF))
        return errno.SUCCESS

    def fd_prestat_get(self, instance, fd, prestat_ptr):
        self.env.wasi_dispatch()
        if self.env.filesystem is not None:
            from repro.wasi.filesystem import WasiFsApi

            return WasiFsApi(self.env).fd_prestat_get(instance, fd,
                                                      prestat_ptr)
        return errno.EBADF  # no preopened directories without a file system

    # -- process ---------------------------------------------------------------------

    def proc_exit(self, instance, code):
        self.env.wasi_dispatch()
        self.env.exit_code = code
        raise ProcExit(code)

    def sched_yield(self, instance):
        self.env.wasi_dispatch()
        return errno.SUCCESS

    def random_get(self, instance, buf_ptr, size):
        self.env.wasi_dispatch()
        _memory(instance).write(buf_ptr, self.env.random_bytes(size))
        return errno.SUCCESS


#: Functions declared but not implemented: calling one traps, as in the
#: paper's development methodology ("dummy functions ... throwing
#: exceptions when called"). Name -> (param count, has i32 result).
UNIMPLEMENTED = {
    "fd_advise": (4, True),
    "fd_allocate": (3, True),
    "fd_datasync": (1, True),
    "fd_fdstat_set_flags": (2, True),
    "fd_fdstat_set_rights": (3, True),
    "fd_filestat_get": (2, True),
    "fd_filestat_set_size": (2, True),
    "fd_filestat_set_times": (4, True),
    "fd_pread": (5, True),
    "fd_prestat_dir_name": (3, True),
    "fd_pwrite": (5, True),
    "fd_readdir": (5, True),
    "fd_renumber": (2, True),
    "fd_sync": (1, True),
    "fd_tell": (2, True),
    "path_create_directory": (3, True),
    "path_filestat_get": (5, True),
    "path_filestat_set_times": (7, True),
    "path_link": (7, True),
    "path_open": (9, True),
    "path_readlink": (6, True),
    "path_remove_directory": (3, True),
    "path_rename": (6, True),
    "path_symlink": (5, True),
    "path_unlink_file": (3, True),
    "poll_oneoff": (4, True),
    "proc_raise": (1, True),
    "sock_recv": (6, True),
    "sock_send": (5, True),
    "sock_shutdown": (2, True),
}

IMPLEMENTED = (
    "args_sizes_get", "args_get", "environ_sizes_get", "environ_get",
    "clock_res_get", "clock_time_get", "fd_write", "fd_read", "fd_close",
    "fd_seek", "fd_fdstat_get", "fd_prestat_get", "proc_exit",
    "sched_yield", "random_get",
)


def wasi_function_count() -> int:
    """Total declared surface (paper: 45 WASI API functions)."""
    return len(IMPLEMENTED) + len(UNIMPLEMENTED)
