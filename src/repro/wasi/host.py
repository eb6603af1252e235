"""Binding of the WASI implementation into a Wasm import namespace."""

from __future__ import annotations

from typing import Dict

from repro.errors import TrapError
from repro.wasi.api import IMPLEMENTED, UNIMPLEMENTED, WasiApi, WasiEnvironment
from repro.wasm.runtime import HostFunction
from repro.wasm.types import FuncType, ValType

WASI_MODULE = "wasi_snapshot_preview1"

I32 = ValType.I32
I64 = ValType.I64

# Signatures of the implemented preview1 functions.
_SIGNATURES: Dict[str, FuncType] = {
    "args_sizes_get": FuncType((I32, I32), (I32,)),
    "args_get": FuncType((I32, I32), (I32,)),
    "environ_sizes_get": FuncType((I32, I32), (I32,)),
    "environ_get": FuncType((I32, I32), (I32,)),
    "clock_res_get": FuncType((I32, I32), (I32,)),
    "clock_time_get": FuncType((I32, I64, I32), (I32,)),
    "fd_write": FuncType((I32, I32, I32, I32), (I32,)),
    "fd_read": FuncType((I32, I32, I32, I32), (I32,)),
    "fd_close": FuncType((I32,), (I32,)),
    "fd_seek": FuncType((I32, I64, I32, I32), (I32,)),
    "fd_fdstat_get": FuncType((I32, I32), (I32,)),
    "fd_prestat_get": FuncType((I32, I32), (I32,)),
    "proc_exit": FuncType((I32,), ()),
    "sched_yield": FuncType((), (I32,)),
    "random_get": FuncType((I32, I32), (I32,)),
}


# Preview1 signatures that are not all-i32 (64-bit offsets/rights); used
# for both the trapping stubs and the file-system implementations so a
# module links identically in either mode.
_WIDE_SIGNATURES: Dict[str, FuncType] = {
    "path_open": FuncType((I32, I32, I32, I32, I32, I64, I64, I32, I32),
                          (I32,)),
    "fd_pread": FuncType((I32, I32, I32, I64, I32), (I32,)),
    "fd_pwrite": FuncType((I32, I32, I32, I64, I32), (I32,)),
    "fd_allocate": FuncType((I32, I64, I64), (I32,)),
    "fd_advise": FuncType((I32, I64, I64, I32), (I32,)),
    "fd_filestat_set_size": FuncType((I32, I64), (I32,)),
    "fd_filestat_set_times": FuncType((I32, I64, I64, I32), (I32,)),
    "path_filestat_set_times": FuncType((I32, I32, I32, I32, I64, I64, I32),
                                        (I32,)),
    "fd_readdir": FuncType((I32, I32, I32, I64, I32), (I32,)),
}


def _stub(name: str) -> HostFunction:
    param_count, has_result = UNIMPLEMENTED[name]
    func_type = _WIDE_SIGNATURES.get(
        name, FuncType((I32,) * param_count, (I32,) if has_result else ()))

    def trap(_instance, *_args):
        raise TrapError(
            f"WASI function {name!r} is declared but not implemented in "
            "WaTZ (no file-system/socket WASI support yet, paper §III)"
        )

    return HostFunction(func_type, trap, name)


#: File-system functions implemented when the WASI-FS extension is on,
#: with their preview1 signatures.
_FS_FUNCTIONS: Dict[str, FuncType] = {
    "path_open": _WIDE_SIGNATURES["path_open"],
    "fd_tell": FuncType((I32, I32), (I32,)),
    "fd_sync": FuncType((I32,), (I32,)),
    "fd_filestat_get": FuncType((I32, I32), (I32,)),
    "path_filestat_get": FuncType((I32, I32, I32, I32, I32), (I32,)),
    "path_unlink_file": FuncType((I32, I32, I32), (I32,)),
    "fd_prestat_dir_name": FuncType((I32, I32, I32), (I32,)),
    "fd_readdir": _WIDE_SIGNATURES["fd_readdir"],
}


def build_wasi_imports(env: WasiEnvironment) -> Dict[str, Dict[str, HostFunction]]:
    """Build the ``wasi_snapshot_preview1`` namespace for instantiation."""
    api = WasiApi(env)
    namespace: Dict[str, HostFunction] = {}
    for name in IMPLEMENTED:
        namespace[name] = HostFunction(_SIGNATURES[name],
                                       getattr(api, name), name)
    for name in UNIMPLEMENTED:
        namespace[name] = _stub(name)
    if env.filesystem is not None:
        from repro.wasi.filesystem import WasiFsApi

        fs_api = WasiFsApi(env)
        for name, signature in _FS_FUNCTIONS.items():
            namespace[name] = HostFunction(signature,
                                           getattr(fs_api, name), name)
    return {WASI_MODULE: namespace}
