"""WASI file-system support — the paper's stated future work.

Paper §III/§V: "WATZ may be completed to support file system interaction
via the Trusted Storage API". This module completes it: a WASI preview1
file system with one preopened root directory, backed either by plain
memory (normal world) or by the GP Trusted Storage of the hosting TA
(secure world), so files written by a hosted Wasm application persist
across WaTZ sessions and stay isolated per TA UUID and, within the TA,
per application measurement.

The extension is opt-in: without a :class:`WasiFilesystem` on the
environment, the file-system calls keep the paper's shipped behaviour
(declared but trapping).
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from repro.errors import TeeItemNotFound
from repro.wasi import errno

PREOPEN_FD = 3

# oflags bits (WASI preview1).
O_CREAT = 1
O_DIRECTORY = 2
O_EXCL = 4
O_TRUNC = 8

# whence values for fd_seek.
SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2

_FILETYPE_DIRECTORY = 3
_FILETYPE_REGULAR = 4

_FILESTAT = struct.Struct("<QQBxxxxxxxQQQQQ")  # dev ino type nlink size a/m/c
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class StorageBacking:
    """Persistence hooks; the default keeps files in memory only."""

    def load(self, name: str) -> Optional[bytes]:
        return None

    def save(self, name: str, payload: bytes) -> None:
        pass

    def remove(self, name: str) -> None:
        pass

    def names(self):
        return []


class TrustedStorageBacking(StorageBacking):
    """Files persisted as trusted-storage objects of the hosting TA, sealed
    to the application that wrote them: every object id starts with that
    application's measurement, so another binary loaded into the same TA
    image finds none of them."""

    def __init__(self, api, measurement: str) -> None:
        self._api = api
        self._prefix = f"wasi-fs/{measurement}/"

    def load(self, name: str) -> Optional[bytes]:
        try:
            return self._api.storage_get(self._prefix + name)
        except TeeItemNotFound:
            return None

    def save(self, name: str, payload: bytes) -> None:
        self._api.storage_put(self._prefix + name, payload)

    def remove(self, name: str) -> None:
        try:
            self._api.storage_delete(self._prefix + name)
        except TeeItemNotFound:
            pass

    def names(self):
        return [object_id[len(self._prefix):]
                for object_id in self._api.storage_list()
                if object_id.startswith(self._prefix)]


class _OpenFile:
    __slots__ = ("name", "position", "append")

    def __init__(self, name: str, append: bool = False) -> None:
        self.name = name
        self.position = 0
        self.append = append


class WasiFilesystem:
    """A flat root directory of regular files."""

    def __init__(self, backing: Optional[StorageBacking] = None) -> None:
        self.backing = backing or StorageBacking()
        self._files: Dict[str, bytearray] = {}
        for name in self.backing.names():
            payload = self.backing.load(name)
            if payload is not None:
                self._files[name] = bytearray(payload)
        self._descriptors: Dict[int, _OpenFile] = {}
        self._next_fd = PREOPEN_FD + 1

    # -- paths ------------------------------------------------------------------

    @staticmethod
    def _normalise(path: str) -> str:
        return path.lstrip("/")

    def exists(self, path: str) -> bool:
        return self._normalise(path) in self._files

    def read_file(self, path: str) -> bytes:
        """Host-side convenience accessor."""
        return bytes(self._files[self._normalise(path)])

    def write_file(self, path: str, payload: bytes) -> None:
        """Host-side convenience accessor (also persists)."""
        name = self._normalise(path)
        self._files[name] = bytearray(payload)
        self.backing.save(name, payload)

    def listdir(self):
        return sorted(self._files)

    # -- descriptor operations -------------------------------------------------------

    def open(self, path: str, oflags: int) -> int:
        name = self._normalise(path)
        if oflags & O_DIRECTORY:
            return -errno.ENOTSUP if name else PREOPEN_FD
        exists = name in self._files
        if not exists:
            loaded = self.backing.load(name)
            if loaded is not None:
                self._files[name] = bytearray(loaded)
                exists = True
        if exists and oflags & O_EXCL:
            return -errno.EACCES
        if not exists:
            if not oflags & O_CREAT:
                return -errno.ENOENT
            self._files[name] = bytearray()
        if oflags & O_TRUNC:
            self._files[name] = bytearray()
        fd = self._next_fd
        self._next_fd += 1
        self._descriptors[fd] = _OpenFile(name)
        return fd

    def _descriptor(self, fd: int) -> Optional[_OpenFile]:
        return self._descriptors.get(fd)

    def read(self, fd: int, size: int) -> Optional[bytes]:
        handle = self._descriptor(fd)
        if handle is None:
            return None
        data = self._files.get(handle.name, bytearray())
        chunk = bytes(data[handle.position : handle.position + size])
        handle.position += len(chunk)
        return chunk

    def write(self, fd: int, payload: bytes) -> Optional[int]:
        handle = self._descriptor(fd)
        if handle is None:
            return None
        data = self._files.setdefault(handle.name, bytearray())
        end = handle.position + len(payload)
        if end > len(data):
            data.extend(bytes(end - len(data)))
        data[handle.position : end] = payload
        handle.position = end
        return len(payload)

    def seek(self, fd: int, offset: int, whence: int) -> Optional[int]:
        handle = self._descriptor(fd)
        if handle is None:
            return None
        size = len(self._files.get(handle.name, bytearray()))
        if whence == SEEK_SET:
            target = offset
        elif whence == SEEK_CUR:
            target = handle.position + offset
        elif whence == SEEK_END:
            target = size + offset
        else:
            return None
        if target < 0:
            return None
        handle.position = target
        return target

    def tell(self, fd: int) -> Optional[int]:
        handle = self._descriptor(fd)
        return None if handle is None else handle.position

    def close(self, fd: int) -> bool:
        handle = self._descriptors.pop(fd, None)
        if handle is None:
            return False
        payload = self._files.get(handle.name)
        if payload is not None:
            self.backing.save(handle.name, bytes(payload))
        return True

    def sync(self, fd: int) -> bool:
        handle = self._descriptor(fd)
        if handle is None:
            return False
        payload = self._files.get(handle.name, bytearray())
        self.backing.save(handle.name, bytes(payload))
        return True

    def unlink(self, path: str) -> bool:
        name = self._normalise(path)
        if name not in self._files:
            return False
        del self._files[name]
        self.backing.remove(name)
        return True

    def size_of_fd(self, fd: int) -> Optional[int]:
        handle = self._descriptor(fd)
        if handle is None:
            return None
        return len(self._files.get(handle.name, bytearray()))

    def size_of_path(self, path: str) -> Optional[int]:
        name = self._normalise(path)
        payload = self._files.get(name)
        return None if payload is None else len(payload)


# -- the WASI entry points over a filesystem ------------------------------------


def _memory(instance):
    return instance.memory


def _read_path(instance, path_ptr: int, path_len: int) -> Optional[str]:
    """The module's path, or None when its bytes are not UTF-8."""
    try:
        return _memory(instance).read(path_ptr, path_len).decode("utf-8")
    except UnicodeDecodeError:
        return None


def _write_filestat(instance, address: int, filetype: int, size: int) -> None:
    _memory(instance).write(address, _FILESTAT.pack(
        0, 0, filetype, 1, size, 0, 0, 0))


class WasiFsApi:
    """File-system halves of the preview1 surface (extension mode)."""

    def __init__(self, env) -> None:
        self.env = env

    @property
    def fs(self) -> WasiFilesystem:
        return self.env.filesystem

    def path_open(self, instance, dirfd, _dirflags, path_ptr, path_len,
                  oflags, _rights_base, _rights_inheriting, _fdflags,
                  opened_fd_ptr):
        self.env.wasi_dispatch()
        if dirfd != PREOPEN_FD:
            return errno.EBADF
        path = _read_path(instance, path_ptr, path_len)
        if path is None:
            return errno.EINVAL
        fd = self.fs.open(path, oflags)
        if fd < 0:
            return -fd
        _memory(instance).write(opened_fd_ptr, _U32.pack(fd))
        return errno.SUCCESS

    def fd_read(self, instance, fd, iovs_ptr, iovs_len, nread_ptr):
        self.env.wasi_dispatch()
        if fd == 0:
            _memory(instance).write(nread_ptr, _U32.pack(0))
            return errno.SUCCESS
        memory = _memory(instance)
        total = 0
        for index in range(iovs_len):
            base = _U32.unpack(memory.read(iovs_ptr + 8 * index, 4))[0]
            size = _U32.unpack(memory.read(iovs_ptr + 8 * index + 4, 4))[0]
            chunk = self.fs.read(fd, size)
            if chunk is None:
                return errno.EBADF
            memory.write(base, chunk)
            total += len(chunk)
            if len(chunk) < size:
                break
        memory.write(nread_ptr, _U32.pack(total))
        return errno.SUCCESS

    def fd_write_file(self, instance, fd, iovs_ptr, iovs_len, nwritten_ptr):
        memory = _memory(instance)
        total = 0
        for index in range(iovs_len):
            base = _U32.unpack(memory.read(iovs_ptr + 8 * index, 4))[0]
            size = _U32.unpack(memory.read(iovs_ptr + 8 * index + 4, 4))[0]
            written = self.fs.write(fd, memory.read(base, size))
            if written is None:
                return errno.EBADF
            total += written
        memory.write(nwritten_ptr, _U32.pack(total))
        return errno.SUCCESS

    def fd_seek(self, instance, fd, offset, whence, newoffset_ptr):
        self.env.wasi_dispatch()
        if fd in (0, 1, 2):
            _memory(instance).write(newoffset_ptr, _U64.pack(0))
            return errno.SUCCESS
        signed = offset - (1 << 64) if offset >> 63 else offset
        position = self.fs.seek(fd, signed, whence)
        if position is None:
            return errno.EINVAL if self.fs._descriptor(fd) else errno.EBADF
        _memory(instance).write(newoffset_ptr, _U64.pack(position))
        return errno.SUCCESS

    def fd_tell(self, instance, fd, offset_ptr):
        self.env.wasi_dispatch()
        position = self.fs.tell(fd)
        if position is None:
            return errno.EBADF
        _memory(instance).write(offset_ptr, _U64.pack(position))
        return errno.SUCCESS

    def fd_close(self, instance, fd):
        self.env.wasi_dispatch()
        if fd in (0, 1, 2, PREOPEN_FD):
            return errno.SUCCESS
        return errno.SUCCESS if self.fs.close(fd) else errno.EBADF

    def fd_sync(self, instance, fd):
        self.env.wasi_dispatch()
        return errno.SUCCESS if self.fs.sync(fd) else errno.EBADF

    def fd_filestat_get(self, instance, fd, buf_ptr):
        self.env.wasi_dispatch()
        if fd == PREOPEN_FD:
            _write_filestat(instance, buf_ptr, _FILETYPE_DIRECTORY, 0)
            return errno.SUCCESS
        size = self.fs.size_of_fd(fd)
        if size is None:
            return errno.EBADF
        _write_filestat(instance, buf_ptr, _FILETYPE_REGULAR, size)
        return errno.SUCCESS

    def path_filestat_get(self, instance, dirfd, _flags, path_ptr,
                          path_len, buf_ptr):
        self.env.wasi_dispatch()
        if dirfd != PREOPEN_FD:
            return errno.EBADF
        path = _read_path(instance, path_ptr, path_len)
        if path is None:
            return errno.EINVAL
        size = self.fs.size_of_path(path)
        if size is None:
            return errno.ENOENT
        _write_filestat(instance, buf_ptr, _FILETYPE_REGULAR, size)
        return errno.SUCCESS

    def path_unlink_file(self, instance, dirfd, path_ptr, path_len):
        self.env.wasi_dispatch()
        if dirfd != PREOPEN_FD:
            return errno.EBADF
        path = _read_path(instance, path_ptr, path_len)
        if path is None:
            return errno.EINVAL
        return errno.SUCCESS if self.fs.unlink(path) else errno.ENOENT

    def fd_prestat_get(self, instance, fd, prestat_ptr):
        self.env.wasi_dispatch()
        if fd != PREOPEN_FD:
            return errno.EBADF
        # tag 0 = preopened directory; name length 1 ("/").
        _memory(instance).write(prestat_ptr, struct.pack("<II", 0, 1))
        return errno.SUCCESS

    def fd_prestat_dir_name(self, instance, fd, path_ptr, path_len):
        self.env.wasi_dispatch()
        if fd != PREOPEN_FD:
            return errno.EBADF
        if path_len < 1:
            return errno.EINVAL
        _memory(instance).write(path_ptr, b"/")
        return errno.SUCCESS

    def fd_readdir(self, instance, fd, buf_ptr, buf_len, cookie, size_ptr):
        self.env.wasi_dispatch()
        if fd != PREOPEN_FD:
            return errno.EBADF
        entries = self.fs.listdir()
        blob = bytearray()
        for index, name in enumerate(entries):
            if index < cookie:
                continue
            raw = name.encode("utf-8")
            blob += struct.pack("<QQIBxxx", index + 1, 0, len(raw),
                                _FILETYPE_REGULAR)
            blob += raw
        chunk = bytes(blob[:buf_len])
        _memory(instance).write(buf_ptr, chunk)
        _memory(instance).write(size_ptr, _U32.pack(len(chunk)))
        return errno.SUCCESS
