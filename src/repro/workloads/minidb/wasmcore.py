"""The database engine core of Fig. 6, in its two builds.

The paper compiles one SQLite source twice, natively with GCC and to Wasm
with WASI-SDK. Offline we cannot compile C, so Fig. 6 pairs two builds of
this small storage engine instead, as each PolyBench kernel file holds
both builds of its kernel:

* :func:`dbcore_source` is the engine authored in walc and compiled to
  Wasm (the WASI-SDK build, run by WAMR and WaTZ);
* :class:`DbCore` is a pure-Python mirror of that source (the native
  build): one method per walc function, called where the walc source calls
  it, over the same flat arrays, with the same block split rule,
  element-wise shifts and merge sort. Its :meth:`DbCore.invoke` answers
  the exported calls as :meth:`repro.wasm.Instance.invoke` does.

The engine does Speedtest1's logical row operations (appends, index
maintenance, binary-search lookups, range scans, sort, group, join).
Payload "text" columns are modelled as derived integers, which preserves
the work-per-row profile without a string library.

The index is a two-level structure — a linked list of sorted blocks of at
most 128 entries with in-block binary search and block splitting — i.e. a
height-2 B-tree. ORDER BY uses bottom-up merge sort.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import LinkError, TrapError
from repro.walc import compile_source

CAPACITY = 8192
BLOCK = 128          # entries per index block


def regions(capacity: int = CAPACITY) -> Dict[str, Tuple[int, int]]:
    """Byte offset and i32 slot count of each flat array, in memory order."""
    c = capacity
    nblocks = c * 2 // BLOCK + 4
    slots = (("keys", c), ("vals", c), ("pay", c), ("alive", c),
             # Index block storage: each block owns a fixed slot of BLOCK
             # entries.
             ("idx_keys", nblocks * BLOCK), ("idx_rows", nblocks * BLOCK),
             ("blk_len", nblocks), ("blk_next", nblocks),
             ("t2_keys", c), ("t2_vals", c), ("scratch", c), ("scratch2", c))
    layout, offset = {}, 0
    for name, count in slots:
        layout[name] = (offset, count)
        offset += 4 * count
    return layout


def dbcore_source(capacity: int = CAPACITY) -> str:
    layout = regions(capacity)
    nblocks = layout["blk_len"][1]
    (keys, vals, pay, alive, idx_keys, idx_rows, blk_len, blk_next,
     t2_keys, t2_vals, scratch, scratch2) = (
        offset for offset, _count in layout.values())
    total_bytes = scratch2 + 4 * capacity + 4096
    pages = total_bytes // 65536 + 2
    return f"""
memory {pages} max {pages * 4};

var count: i32 = 0;
var indexed: i32 = 0;
var idx_head: i32 = -1;     // first index block, -1 when empty
var blk_alloc: i32 = 0;     // bump allocator over block slots
var t2_count: i32 = 0;

// Deterministic pseudo-random key stream (speedtest1 randomises too).
fn prng(seed: i32) -> i32 {{
  return ((seed * 1103515245 + 12345) >> 8) & 0x7fffff;
}}

fn blk_key(b: i32, i: i32) -> i32 {{
  return load_i32({idx_keys} + (b * {BLOCK} + i) * 4);
}}

fn blk_row(b: i32, i: i32) -> i32 {{
  return load_i32({idx_rows} + (b * {BLOCK} + i) * 4);
}}

fn blk_count(b: i32) -> i32 {{
  return load_i32({blk_len} + b * 4);
}}

fn blk_set_count(b: i32, n: i32) {{
  store_i32({blk_len} + b * 4, n);
}}

fn blk_succ(b: i32) -> i32 {{
  return load_i32({blk_next} + b * 4);
}}

fn blk_set_succ(b: i32, s: i32) {{
  store_i32({blk_next} + b * 4, s);
}}

fn blk_new() -> i32 {{
  var b: i32 = blk_alloc;
  blk_alloc = blk_alloc + 1;
  if (b >= {nblocks}) {{ unreachable(); }}
  blk_set_count(b, 0);
  blk_set_succ(b, -1);
  return b;
}}

export fn idx_reset() {{
  idx_head = -1;
  blk_alloc = 0;
}}

// The block whose range covers `key` (the first block whose max >= key),
// or the last block.
fn idx_find_block(key: i32) -> i32 {{
  var b: i32 = idx_head;
  while (b >= 0) {{
    var n: i32 = blk_count(b);
    if (n > 0 && blk_key(b, n - 1) >= key) {{ return b; }}
    if (blk_succ(b) < 0) {{ return b; }}
    b = blk_succ(b);
  }}
  return b;
}}

// First in-block position with key >= target.
fn blk_lower_bound(b: i32, key: i32) -> i32 {{
  var lo: i32 = 0;
  var hi: i32 = blk_count(b);
  while (lo < hi) {{
    var mid: i32 = (lo + hi) / 2;
    if (blk_key(b, mid) < key) {{ lo = mid + 1; }}
    else {{ hi = mid; }}
  }}
  return lo;
}}

fn idx_insert(key: i32, row: i32) {{
  if (idx_head < 0) {{
    idx_head = blk_new();
  }}
  var b: i32 = idx_find_block(key);
  if (blk_count(b) == {BLOCK}) {{
    // Split: move the upper half into a fresh linked block.
    var s: i32 = blk_new();
    var half: i32 = {BLOCK} / 2;
    var src_k: i32 = {idx_keys} + (b * {BLOCK} + half) * 4;
    var src_r: i32 = {idx_rows} + (b * {BLOCK} + half) * 4;
    var dst_k: i32 = {idx_keys} + s * {BLOCK} * 4;
    var dst_r: i32 = {idx_rows} + s * {BLOCK} * 4;
    for (var i: i32 = 0; i < half; i = i + 1) {{
      store_i32(dst_k + i * 4, load_i32(src_k + i * 4));
      store_i32(dst_r + i * 4, load_i32(src_r + i * 4));
    }}
    blk_set_count(s, half);
    blk_set_count(b, half);
    blk_set_succ(s, blk_succ(b));
    blk_set_succ(b, s);
    if (key > blk_key(b, half - 1)) {{ b = s; }}
  }}
  // Inlined binary search + shift over the block's key/row slots.
  var base_k: i32 = {idx_keys} + b * {BLOCK} * 4;
  var base_r: i32 = {idx_rows} + b * {BLOCK} * 4;
  var n: i32 = blk_count(b);
  var lo: i32 = 0;
  var hi: i32 = n;
  while (lo < hi) {{
    var mid: i32 = (lo + hi) / 2;
    if (load_i32(base_k + mid * 4) < key) {{ lo = mid + 1; }}
    else {{ hi = mid; }}
  }}
  var i: i32 = n;
  while (i > lo) {{
    store_i32(base_k + i * 4, load_i32(base_k + (i - 1) * 4));
    store_i32(base_r + i * 4, load_i32(base_r + (i - 1) * 4));
    i = i - 1;
  }}
  store_i32(base_k + lo * 4, key);
  store_i32(base_r + lo * 4, row);
  blk_set_count(b, n + 1);
}}

fn idx_delete(key: i32, row: i32) {{
  var b: i32 = idx_head;
  while (b >= 0) {{
    var n: i32 = blk_count(b);
    var base_k: i32 = {idx_keys} + b * {BLOCK} * 4;
    var base_r: i32 = {idx_rows} + b * {BLOCK} * 4;
    if (n > 0 && load_i32(base_k + (n - 1) * 4) >= key) {{
      var lo: i32 = 0;
      var hi: i32 = n;
      while (lo < hi) {{
        var mid: i32 = (lo + hi) / 2;
        if (load_i32(base_k + mid * 4) < key) {{ lo = mid + 1; }}
        else {{ hi = mid; }}
      }}
      while (lo < n && load_i32(base_k + lo * 4) == key) {{
        if (load_i32(base_r + lo * 4) == row) {{
          for (var i: i32 = lo; i < n - 1; i = i + 1) {{
            store_i32(base_k + i * 4, load_i32(base_k + (i + 1) * 4));
            store_i32(base_r + i * 4, load_i32(base_r + (i + 1) * 4));
          }}
          blk_set_count(b, n - 1);
          return;
        }}
        lo = lo + 1;
      }}
      // Duplicates may spill into the next block.
    }}
    b = blk_succ(b);
  }}
}}

export fn reset() {{
  count = 0;
  indexed = 0;
  idx_reset();
}}

export fn set_indexed(flag: i32) {{
  indexed = flag;
  if (flag != 0 && idx_head < 0) {{
    idx_head = blk_new();
  }}
}}

export fn row_count() -> i32 {{ return count; }}

// Insert n rows with keys in [0, key_range); payload derives from the key
// the way speedtest1 derives its text column from the row number.
export fn insert_many(n: i32, key_range: i32) -> i32 {{
  var inserted: i32 = 0;
  for (var i: i32 = 0; i < n; i = i + 1) {{
    var key: i32 = prng(count + i) % key_range;
    var row: i32 = count + i;
    store_i32({keys} + row * 4, key);
    store_i32({vals} + row * 4, (key * 3 + 7) % 1000);
    store_i32({pay} + row * 4, prng(key));
    store_i32({alive} + row * 4, 1);
    if (indexed != 0) {{
      idx_insert(key, row);
    }}
    inserted = inserted + 1;
  }}
  count = count + n;
  return inserted;
}}

export fn build_index() -> i32 {{
  idx_reset();
  idx_head = blk_new();
  var n: i32 = 0;
  for (var row: i32 = 0; row < count; row = row + 1) {{
    if (load_i32({alive} + row * 4) != 0) {{
      idx_insert(load_i32({keys} + row * 4), row);
      n = n + 1;
    }}
  }}
  indexed = 1;
  return n;
}}

// Range count through the index (SELECT ... WHERE key BETWEEN lo AND hi).
export fn lookup_count(lo: i32, hi: i32) -> i32 {{
  var n: i32 = 0;
  var b: i32 = idx_find_block(lo);
  if (b < 0) {{ return 0; }}
  var pos: i32 = blk_lower_bound(b, lo);
  while (b >= 0) {{
    while (pos < blk_count(b)) {{
      if (blk_key(b, pos) > hi) {{ return n; }}
      if (load_i32({alive} + blk_row(b, pos) * 4) != 0) {{ n = n + 1; }}
      pos = pos + 1;
    }}
    b = blk_succ(b);
    pos = 0;
  }}
  return n;
}}

// Full-scan range count (no usable index).
export fn scan_count(lo: i32, hi: i32) -> i32 {{
  var n: i32 = 0;
  for (var row: i32 = 0; row < count; row = row + 1) {{
    if (load_i32({alive} + row * 4) != 0) {{
      var v: i32 = load_i32({vals} + row * 4);
      if (v >= lo && v <= hi) {{ n = n + 1; }}
    }}
  }}
  return n;
}}

// Text-compare surrogate: payload residue filter (LIKE 'pattern%').
export fn scan_like(mask: i32, residue: i32) -> i32 {{
  var n: i32 = 0;
  for (var row: i32 = 0; row < count; row = row + 1) {{
    if (load_i32({alive} + row * 4) != 0) {{
      if (remu(load_i32({pay} + row * 4), mask) == residue) {{ n = n + 1; }}
    }}
  }}
  return n;
}}

// Disjunctive filter (WHERE v = a OR v = b OR key < c).
export fn scan_or(a: i32, b: i32, limit_key: i32) -> i32 {{
  var n: i32 = 0;
  for (var row: i32 = 0; row < count; row = row + 1) {{
    if (load_i32({alive} + row * 4) != 0) {{
      var v: i32 = load_i32({vals} + row * 4);
      if (v == a || v == b || load_i32({keys} + row * 4) < limit_key) {{
        n = n + 1;
      }}
    }}
  }}
  return n;
}}

// m point lookups via the index (SELECT ... WHERE key = ?).
export fn select_eq_sum(m: i32, key_range: i32) -> i32 {{
  var total: i32 = 0;
  for (var i: i32 = 0; i < m; i = i + 1) {{
    var key: i32 = prng(i * 17 + 3) % key_range;
    var b: i32 = idx_find_block(key);
    if (b >= 0) {{
      var pos: i32 = blk_lower_bound(b, key);
      while (b >= 0) {{
        if (pos >= blk_count(b)) {{
          b = blk_succ(b);
          pos = 0;
          continue;
        }}
        if (blk_key(b, pos) != key) {{ break; }}
        var row: i32 = blk_row(b, pos);
        if (load_i32({alive} + row * 4) != 0) {{
          total = (total + load_i32({vals} + row * 4)) % 1000000;
        }}
        pos = pos + 1;
      }}
    }}
  }}
  return total;
}}

// Range update via full scan (UPDATE ... WHERE val BETWEEN, no index).
export fn update_scan(lo: i32, hi: i32, delta: i32) -> i32 {{
  var n: i32 = 0;
  for (var row: i32 = 0; row < count; row = row + 1) {{
    if (load_i32({alive} + row * 4) != 0) {{
      var v: i32 = load_i32({vals} + row * 4);
      if (v >= lo && v <= hi) {{
        store_i32({vals} + row * 4, v + delta);
        n = n + 1;
      }}
    }}
  }}
  return n;
}}

// Key update through the index: matching rows are collected first, then
// re-keyed with full index maintenance.
export fn update_indexed(lo: i32, hi: i32, delta: i32) -> i32 {{
  var n: i32 = 0;
  var b: i32 = idx_find_block(lo);
  if (b >= 0) {{
    var pos: i32 = blk_lower_bound(b, lo);
    while (b >= 0) {{
      while (pos < blk_count(b)) {{
        if (blk_key(b, pos) > hi) {{ b = -1; break; }}
        var row: i32 = blk_row(b, pos);
        if (load_i32({alive} + row * 4) != 0) {{
          store_i32({scratch} + n * 4, row);
          n = n + 1;
        }}
        pos = pos + 1;
      }}
      if (b < 0) {{ break; }}
      b = blk_succ(b);
      pos = 0;
    }}
  }}
  for (var i: i32 = 0; i < n; i = i + 1) {{
    var row: i32 = load_i32({scratch} + i * 4);
    var key: i32 = load_i32({keys} + row * 4);
    idx_delete(key, row);
    store_i32({keys} + row * 4, key + delta);
    idx_insert(key + delta, row);
  }}
  return n;
}}

// Range delete: tombstones plus index maintenance when indexed.
export fn delete_range(lo: i32, hi: i32) -> i32 {{
  var n: i32 = 0;
  for (var row: i32 = 0; row < count; row = row + 1) {{
    if (load_i32({alive} + row * 4) != 0) {{
      var key: i32 = load_i32({keys} + row * 4);
      if (key >= lo && key <= hi) {{
        store_i32({alive} + row * 4, 0);
        if (indexed != 0) {{
          idx_delete(key, row);
        }}
        n = n + 1;
      }}
    }}
  }}
  return n;
}}

// ORDER BY: bottom-up merge sort of live values, then a checksum pass.
export fn order_by_checksum() -> i32 {{
  var m: i32 = 0;
  for (var row: i32 = 0; row < count; row = row + 1) {{
    if (load_i32({alive} + row * 4) != 0) {{
      store_i32({scratch} + m * 4, load_i32({vals} + row * 4));
      m = m + 1;
    }}
  }}
  var src: i32 = {scratch};
  var dst: i32 = {scratch2};
  var width: i32 = 1;
  while (width < m) {{
    var lo: i32 = 0;
    while (lo < m) {{
      var mid: i32 = lo + width;
      if (mid > m) {{ mid = m; }}
      var hi: i32 = lo + 2 * width;
      if (hi > m) {{ hi = m; }}
      var i: i32 = lo;
      var j: i32 = mid;
      var k: i32 = lo;
      while (i < mid && j < hi) {{
        if (load_i32(src + i * 4) <= load_i32(src + j * 4)) {{
          store_i32(dst + k * 4, load_i32(src + i * 4));
          i = i + 1;
        }} else {{
          store_i32(dst + k * 4, load_i32(src + j * 4));
          j = j + 1;
        }}
        k = k + 1;
      }}
      while (i < mid) {{
        store_i32(dst + k * 4, load_i32(src + i * 4));
        i = i + 1;
        k = k + 1;
      }}
      while (j < hi) {{
        store_i32(dst + k * 4, load_i32(src + j * 4));
        j = j + 1;
        k = k + 1;
      }}
      lo = hi;
    }}
    var tmp: i32 = src;
    src = dst;
    dst = tmp;
    width = width * 2;
  }}
  var sum: i32 = 0;
  for (var i: i32 = 0; i < m; i = i + 1) {{
    sum = (sum * 31 + load_i32(src + i * 4)) & 0xffffff;
  }}
  return sum;
}}

// GROUP BY val % buckets with SUM aggregates.
export fn group_sum(buckets: i32) -> i32 {{
  for (var b: i32 = 0; b < buckets; b = b + 1) {{
    store_i32({scratch} + b * 4, 0);
  }}
  for (var row: i32 = 0; row < count; row = row + 1) {{
    if (load_i32({alive} + row * 4) != 0) {{
      var v: i32 = load_i32({vals} + row * 4);
      var b: i32 = remu(v, buckets);
      store_i32({scratch} + b * 4, load_i32({scratch} + b * 4) + v);
    }}
  }}
  var sum: i32 = 0;
  for (var b: i32 = 0; b < buckets; b = b + 1) {{
    sum = (sum * 31 + load_i32({scratch} + b * 4)) & 0xffffff;
  }}
  return sum;
}}

// Second table for joins: sorted keys so the join probe can binary search.
export fn fill_join_table(n: i32) {{
  for (var i: i32 = 0; i < n; i = i + 1) {{
    store_i32({t2_keys} + i * 4, i * 2);
    store_i32({t2_vals} + i * 4, (i * 11 + 5) % 997);
  }}
  t2_count = n;
}}

export fn join_sum() -> i32 {{
  var total: i32 = 0;
  for (var row: i32 = 0; row < count; row = row + 1) {{
    if (load_i32({alive} + row * 4) != 0) {{
      var key: i32 = load_i32({keys} + row * 4);
      var lo: i32 = 0;
      var hi: i32 = t2_count;
      while (lo < hi) {{
        var mid: i32 = (lo + hi) / 2;
        if (load_i32({t2_keys} + mid * 4) < key) {{ lo = mid + 1; }}
        else {{ hi = mid; }}
      }}
      if (lo < t2_count && load_i32({t2_keys} + lo * 4) == key) {{
        total = (total + load_i32({t2_vals} + lo * 4)) % 1000000;
      }}
    }}
  }}
  return total;
}}

export fn count_alive() -> i32 {{
  var n: i32 = 0;
  for (var row: i32 = 0; row < count; row = row + 1) {{
    if (load_i32({alive} + row * 4) != 0) {{ n = n + 1; }}
  }}
  return n;
}}

// MIN/MAX through the index: both ends, repeated m times. Deletes can
// leave blocks empty at either end, so both walks skip empty blocks.
export fn min_max_sum(m: i32) -> i32 {{
  var total: i32 = 0;
  for (var i: i32 = 0; i < m; i = i + 1) {{
    var b: i32 = idx_head;
    while (b >= 0 && blk_count(b) == 0) {{ b = blk_succ(b); }}
    if (b >= 0) {{
      var mn: i32 = blk_key(b, 0);
      var last: i32 = b;
      var next: i32 = blk_succ(b);
      while (next >= 0) {{
        if (blk_count(next) > 0) {{ last = next; }}
        next = blk_succ(next);
      }}
      var mx: i32 = blk_key(last, blk_count(last) - 1);
      total = (total + mn + mx) % 1000000;
    }}
  }}
  return total;
}}
"""


def compile_dbcore(capacity: int = CAPACITY) -> bytes:
    """Compile the storage-engine core to a Wasm binary."""
    return compile_source(dbcore_source(capacity))


# --- the native build ---------------------------------------------------------

#: The functions the walc source exports, which :meth:`DbCore.invoke` serves.
EXPORTS = frozenset((
    "idx_reset", "reset", "set_indexed", "row_count", "insert_many",
    "build_index", "lookup_count", "scan_count", "scan_like", "scan_or",
    "select_eq_sum", "update_scan", "update_indexed", "delete_range",
    "order_by_checksum", "group_sum", "fill_join_table", "join_sum",
    "count_alive", "min_max_sum",
))

_MASK32 = 0xFFFFFFFF


def _i32(value: int) -> int:
    """``value`` read as a signed i32, as the walc code sees its arguments."""
    return ((int(value) + 0x80000000) & _MASK32) - 0x80000000


def prng(seed: int) -> int:
    """Deterministic pseudo-random key stream (speedtest1 randomises too)."""
    return ((seed * 1103515245 + 12345) >> 8) & 0x7FFFFF


class DbCore:
    """The native build: a pure-Python mirror of :func:`dbcore_source`.

    Each method mirrors the walc function of the same name, statement for
    statement, and calls the functions the walc source calls where it calls
    them. Each flat array of :func:`regions` is a list of the same length,
    indexed by slot where the walc code computes a byte address; the walc
    globals are attributes.

    Python's ``//``, ``%`` and comparisons stand in for the walc i32
    operators. They agree wherever keys, values, counts and sums stay
    non-negative and below 2**31, and rows stay within the capacity, which
    every Speedtest call list keeps to.
    """

    def __init__(self, capacity: int = CAPACITY) -> None:
        for name, (_offset, count) in regions(capacity).items():
            setattr(self, name, [0] * count)
        self.nblocks = len(self.blk_len)
        self.count = 0
        self.indexed = 0
        self.idx_head = -1     # first index block, -1 when empty
        self.blk_alloc = 0     # bump allocator over block slots
        self.t2_count = 0

    def invoke(self, name: str, *args):
        """Call an exported function as :meth:`Instance.invoke` does."""
        if name not in EXPORTS:
            raise LinkError(f"no export named {name!r}")
        result = getattr(self, name)(*(_i32(arg) for arg in args))
        return None if result is None else result & _MASK32

    # -- index blocks ----------------------------------------------------------

    def blk_key(self, b, i):
        return self.idx_keys[b * BLOCK + i]

    def blk_row(self, b, i):
        return self.idx_rows[b * BLOCK + i]

    def blk_count(self, b):
        return self.blk_len[b]

    def blk_set_count(self, b, n):
        self.blk_len[b] = n

    def blk_succ(self, b):
        return self.blk_next[b]

    def blk_set_succ(self, b, s):
        self.blk_next[b] = s

    def blk_new(self):
        b = self.blk_alloc
        self.blk_alloc = self.blk_alloc + 1
        if b >= self.nblocks:
            raise TrapError("unreachable executed")
        self.blk_set_count(b, 0)
        self.blk_set_succ(b, -1)
        return b

    def idx_reset(self):
        self.idx_head = -1
        self.blk_alloc = 0

    def idx_find_block(self, key):
        b = self.idx_head
        while b >= 0:
            n = self.blk_count(b)
            if n > 0 and self.blk_key(b, n - 1) >= key:
                return b
            if self.blk_succ(b) < 0:
                return b
            b = self.blk_succ(b)
        return b

    def blk_lower_bound(self, b, key):
        lo = 0
        hi = self.blk_count(b)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.blk_key(b, mid) < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def idx_insert(self, key, row):
        idx_keys, idx_rows = self.idx_keys, self.idx_rows
        if self.idx_head < 0:
            self.idx_head = self.blk_new()
        b = self.idx_find_block(key)
        if self.blk_count(b) == BLOCK:
            # Split: move the upper half into a fresh linked block.
            s = self.blk_new()
            half = BLOCK // 2
            src = b * BLOCK + half
            dst = s * BLOCK
            for i in range(half):
                idx_keys[dst + i] = idx_keys[src + i]
                idx_rows[dst + i] = idx_rows[src + i]
            self.blk_set_count(s, half)
            self.blk_set_count(b, half)
            self.blk_set_succ(s, self.blk_succ(b))
            self.blk_set_succ(b, s)
            if key > self.blk_key(b, half - 1):
                b = s
        # Inlined binary search + shift over the block's key/row slots.
        base = b * BLOCK
        n = self.blk_count(b)
        lo = 0
        hi = n
        while lo < hi:
            mid = (lo + hi) // 2
            if idx_keys[base + mid] < key:
                lo = mid + 1
            else:
                hi = mid
        i = n
        while i > lo:
            idx_keys[base + i] = idx_keys[base + i - 1]
            idx_rows[base + i] = idx_rows[base + i - 1]
            i = i - 1
        idx_keys[base + lo] = key
        idx_rows[base + lo] = row
        self.blk_set_count(b, n + 1)

    def idx_delete(self, key, row):
        idx_keys, idx_rows = self.idx_keys, self.idx_rows
        b = self.idx_head
        while b >= 0:
            n = self.blk_count(b)
            base = b * BLOCK
            if n > 0 and idx_keys[base + n - 1] >= key:
                lo = 0
                hi = n
                while lo < hi:
                    mid = (lo + hi) // 2
                    if idx_keys[base + mid] < key:
                        lo = mid + 1
                    else:
                        hi = mid
                while lo < n and idx_keys[base + lo] == key:
                    if idx_rows[base + lo] == row:
                        for i in range(lo, n - 1):
                            idx_keys[base + i] = idx_keys[base + i + 1]
                            idx_rows[base + i] = idx_rows[base + i + 1]
                        self.blk_set_count(b, n - 1)
                        return
                    lo = lo + 1
                # Duplicates may spill into the next block.
            b = self.blk_succ(b)

    # -- exported operations ----------------------------------------------------

    def reset(self):
        self.count = 0
        self.indexed = 0
        self.idx_reset()

    def set_indexed(self, flag):
        self.indexed = flag
        if flag != 0 and self.idx_head < 0:
            self.idx_head = self.blk_new()

    def row_count(self):
        return self.count

    def insert_many(self, n, key_range):
        keys, vals, pay, alive = self.keys, self.vals, self.pay, self.alive
        inserted = 0
        for i in range(n):
            key = prng(self.count + i) % key_range
            row = self.count + i
            keys[row] = key
            vals[row] = (key * 3 + 7) % 1000
            pay[row] = prng(key)
            alive[row] = 1
            if self.indexed != 0:
                self.idx_insert(key, row)
            inserted = inserted + 1
        self.count = self.count + n
        return inserted

    def build_index(self):
        keys, alive = self.keys, self.alive
        self.idx_reset()
        self.idx_head = self.blk_new()
        n = 0
        for row in range(self.count):
            if alive[row] != 0:
                self.idx_insert(keys[row], row)
                n = n + 1
        self.indexed = 1
        return n

    def lookup_count(self, lo, hi):
        alive = self.alive
        n = 0
        b = self.idx_find_block(lo)
        if b < 0:
            return 0
        pos = self.blk_lower_bound(b, lo)
        while b >= 0:
            while pos < self.blk_count(b):
                if self.blk_key(b, pos) > hi:
                    return n
                if alive[self.blk_row(b, pos)] != 0:
                    n = n + 1
                pos = pos + 1
            b = self.blk_succ(b)
            pos = 0
        return n

    def scan_count(self, lo, hi):
        vals, alive = self.vals, self.alive
        n = 0
        for row in range(self.count):
            if alive[row] != 0:
                v = vals[row]
                if v >= lo and v <= hi:
                    n = n + 1
        return n

    def scan_like(self, mask, residue):
        pay, alive = self.pay, self.alive
        n = 0
        for row in range(self.count):
            if alive[row] != 0:
                if pay[row] % mask == residue:
                    n = n + 1
        return n

    def scan_or(self, a, b, limit_key):
        keys, vals, alive = self.keys, self.vals, self.alive
        n = 0
        for row in range(self.count):
            if alive[row] != 0:
                v = vals[row]
                if v == a or v == b or keys[row] < limit_key:
                    n = n + 1
        return n

    def select_eq_sum(self, m, key_range):
        vals, alive = self.vals, self.alive
        total = 0
        for i in range(m):
            key = prng(i * 17 + 3) % key_range
            b = self.idx_find_block(key)
            if b >= 0:
                pos = self.blk_lower_bound(b, key)
                while b >= 0:
                    if pos >= self.blk_count(b):
                        b = self.blk_succ(b)
                        pos = 0
                        continue
                    if self.blk_key(b, pos) != key:
                        break
                    row = self.blk_row(b, pos)
                    if alive[row] != 0:
                        total = (total + vals[row]) % 1000000
                    pos = pos + 1
        return total

    def update_scan(self, lo, hi, delta):
        vals, alive = self.vals, self.alive
        n = 0
        for row in range(self.count):
            if alive[row] != 0:
                v = vals[row]
                if v >= lo and v <= hi:
                    vals[row] = v + delta
                    n = n + 1
        return n

    def update_indexed(self, lo, hi, delta):
        keys, alive, scratch = self.keys, self.alive, self.scratch
        n = 0
        b = self.idx_find_block(lo)
        if b >= 0:
            pos = self.blk_lower_bound(b, lo)
            while b >= 0:
                while pos < self.blk_count(b):
                    if self.blk_key(b, pos) > hi:
                        b = -1
                        break
                    row = self.blk_row(b, pos)
                    if alive[row] != 0:
                        scratch[n] = row
                        n = n + 1
                    pos = pos + 1
                if b < 0:
                    break
                b = self.blk_succ(b)
                pos = 0
        for i in range(n):
            row = scratch[i]
            key = keys[row]
            self.idx_delete(key, row)
            keys[row] = key + delta
            self.idx_insert(key + delta, row)
        return n

    def delete_range(self, lo, hi):
        keys, alive = self.keys, self.alive
        n = 0
        for row in range(self.count):
            if alive[row] != 0:
                key = keys[row]
                if key >= lo and key <= hi:
                    alive[row] = 0
                    if self.indexed != 0:
                        self.idx_delete(key, row)
                    n = n + 1
        return n

    def order_by_checksum(self):
        vals, alive, scratch = self.vals, self.alive, self.scratch
        m = 0
        for row in range(self.count):
            if alive[row] != 0:
                scratch[m] = vals[row]
                m = m + 1
        src = scratch
        dst = self.scratch2
        width = 1
        while width < m:
            lo = 0
            while lo < m:
                mid = lo + width
                if mid > m:
                    mid = m
                hi = lo + 2 * width
                if hi > m:
                    hi = m
                i = lo
                j = mid
                k = lo
                while i < mid and j < hi:
                    if src[i] <= src[j]:
                        dst[k] = src[i]
                        i = i + 1
                    else:
                        dst[k] = src[j]
                        j = j + 1
                    k = k + 1
                while i < mid:
                    dst[k] = src[i]
                    i = i + 1
                    k = k + 1
                while j < hi:
                    dst[k] = src[j]
                    j = j + 1
                    k = k + 1
                lo = hi
            src, dst = dst, src
            width = width * 2
        total = 0
        for i in range(m):
            total = (total * 31 + src[i]) & 0xFFFFFF
        return total

    def group_sum(self, buckets):
        vals, alive, scratch = self.vals, self.alive, self.scratch
        for b in range(buckets):
            scratch[b] = 0
        for row in range(self.count):
            if alive[row] != 0:
                v = vals[row]
                b = v % buckets
                scratch[b] = scratch[b] + v
        total = 0
        for b in range(buckets):
            total = (total * 31 + scratch[b]) & 0xFFFFFF
        return total

    def fill_join_table(self, n):
        t2_keys, t2_vals = self.t2_keys, self.t2_vals
        for i in range(n):
            t2_keys[i] = i * 2
            t2_vals[i] = (i * 11 + 5) % 997
        self.t2_count = n

    def join_sum(self):
        keys, alive = self.keys, self.alive
        t2_keys, t2_vals = self.t2_keys, self.t2_vals
        total = 0
        for row in range(self.count):
            if alive[row] != 0:
                key = keys[row]
                lo = 0
                hi = self.t2_count
                while lo < hi:
                    mid = (lo + hi) // 2
                    if t2_keys[mid] < key:
                        lo = mid + 1
                    else:
                        hi = mid
                if lo < self.t2_count and t2_keys[lo] == key:
                    total = (total + t2_vals[lo]) % 1000000
        return total

    def count_alive(self):
        alive = self.alive
        n = 0
        for row in range(self.count):
            if alive[row] != 0:
                n = n + 1
        return n

    def min_max_sum(self, m):
        total = 0
        for _ in range(m):
            b = self.idx_head
            while b >= 0 and self.blk_count(b) == 0:
                b = self.blk_succ(b)
            if b >= 0:
                mn = self.blk_key(b, 0)
                last = b
                nxt = self.blk_succ(b)
                while nxt >= 0:
                    if self.blk_count(nxt) > 0:
                        last = nxt
                    nxt = self.blk_succ(nxt)
                mx = self.blk_key(last, self.blk_count(last) - 1)
                total = (total + mn + mx) % 1000000
        return total
