//! Stateful register arrays, the P4 `register<bit<64>>(N)` construct.
//!
//! The paper's INT collection scheme (§III-A) keeps one register per INT
//! parameter per port — most importantly the maximum egress-queue occupancy
//! observed since the last probe harvested (and reset) it.

use std::collections::BTreeMap;

/// A fixed-size array of 64-bit registers, as declared in a P4 program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterArray {
    cells: Vec<u64>,
}

impl RegisterArray {
    /// Allocate `size` zeroed registers.
    pub fn new(size: usize) -> Self {
        RegisterArray { cells: vec![0; size] }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read cell `idx` (0 for out-of-range, matching P4 target semantics of
    /// bounded reads returning a default rather than trapping).
    pub fn read(&self, idx: usize) -> u64 {
        self.cells.get(idx).copied().unwrap_or(0)
    }

    /// Write cell `idx`; out-of-range writes are dropped.
    pub fn write(&mut self, idx: usize, value: u64) {
        if let Some(c) = self.cells.get_mut(idx) {
            *c = value;
        }
    }

    /// `cells[idx] = max(cells[idx], value)` — the update the INT program
    /// applies on every packet for queue-occupancy tracking.
    pub fn write_max(&mut self, idx: usize, value: u64) {
        if let Some(c) = self.cells.get_mut(idx) {
            *c = (*c).max(value);
        }
    }

    /// `cells[idx] += 1`, saturating — the packet-counter idiom.
    pub fn increment(&mut self, idx: usize) {
        if let Some(c) = self.cells.get_mut(idx) {
            *c = c.saturating_add(1);
        }
    }

    /// Read cell `idx` and reset it to zero (probe harvest).
    pub fn take(&mut self, idx: usize) -> u64 {
        match self.cells.get_mut(idx) {
            Some(c) => std::mem::take(c),
            None => 0,
        }
    }

    /// Zero every cell.
    pub fn clear(&mut self) {
        self.cells.fill(0);
    }
}

/// All register arrays a program declared, addressed by name — the
/// control-plane view (`register_read`/`register_write` in BMv2's CLI). A
/// program resolves its own arrays to indices once ([`RegisterFile::index_of`])
/// and reaches them with [`RegisterFile::at_mut`] on the per-packet path.
#[derive(Debug, Clone, Default)]
pub struct RegisterFile {
    /// Arrays in declaration order, so an index never moves.
    arrays: Vec<RegisterArray>,
    /// Name → index into `arrays`.
    index: BTreeMap<&'static str, usize>,
}

impl RegisterFile {
    /// Empty register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a register array. Redeclaring an existing name resizes and
    /// zeroes it (mirrors reloading a P4 program).
    pub fn declare(&mut self, name: &'static str, size: usize) {
        match self.index.get(name) {
            Some(&i) => self.arrays[i] = RegisterArray::new(size),
            None => {
                self.index.insert(name, self.arrays.len());
                self.arrays.push(RegisterArray::new(size));
            }
        }
    }

    /// Index of a declared array, stable for the file's lifetime
    /// (redeclaring keeps it).
    pub fn index_of(&self, name: &'static str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Access an array; panics on undeclared names — using an undeclared
    /// register is a program bug, exactly like an undeclared extern in P4.
    pub fn array(&self, name: &'static str) -> &RegisterArray {
        &self.arrays[self.resolve(name)]
    }

    /// Mutable access to an array; panics on undeclared names.
    pub fn array_mut(&mut self, name: &'static str) -> &mut RegisterArray {
        let i = self.resolve(name);
        &mut self.arrays[i]
    }

    /// Mutable access by [`RegisterFile::index_of`] index.
    pub fn at_mut(&mut self, index: usize) -> &mut RegisterArray {
        &mut self.arrays[index]
    }

    /// Names of all declared arrays (sorted — BTreeMap order).
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.index.keys().copied()
    }

    fn resolve(&self, name: &'static str) -> usize {
        self.index_of(name).unwrap_or_else(|| panic!("register array `{name}` not declared"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_max_keeps_maximum() {
        let mut a = RegisterArray::new(4);
        a.write_max(2, 10);
        a.write_max(2, 3);
        a.write_max(2, 17);
        assert_eq!(a.read(2), 17);
        assert_eq!(a.read(1), 0, "other cells untouched");
    }

    #[test]
    fn take_resets_to_zero() {
        let mut a = RegisterArray::new(2);
        a.write(0, 42);
        assert_eq!(a.take(0), 42);
        assert_eq!(a.read(0), 0);
        assert_eq!(a.take(0), 0, "second take sees the reset value");
    }

    #[test]
    fn out_of_range_ops_are_safe() {
        let mut a = RegisterArray::new(1);
        assert_eq!(a.read(5), 0);
        a.write(5, 9);
        a.write_max(5, 9);
        assert_eq!(a.take(5), 0);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn clear_zeroes_all() {
        let mut a = RegisterArray::new(3);
        for i in 0..3 {
            a.write(i, i as u64 + 1);
        }
        a.clear();
        assert!((0..3).all(|i| a.read(i) == 0));
    }

    #[test]
    fn register_file_declare_and_access() {
        let mut rf = RegisterFile::new();
        rf.declare("max_qlen", 8);
        rf.array_mut("max_qlen").write_max(3, 12);
        assert_eq!(rf.array("max_qlen").read(3), 12);
        assert_eq!(rf.names().collect::<Vec<_>>(), vec!["max_qlen"]);
    }

    #[test]
    fn redeclare_resets() {
        let mut rf = RegisterFile::new();
        rf.declare("r", 2);
        rf.array_mut("r").write(0, 7);
        rf.declare("r", 4);
        assert_eq!(rf.array("r").read(0), 0);
        assert_eq!(rf.array("r").len(), 4);
    }

    #[test]
    fn indices_are_stable_and_alias_names() {
        let mut rf = RegisterFile::new();
        rf.declare("zeta", 2);
        rf.declare("alpha", 2);
        let z = rf.index_of("zeta").unwrap();
        rf.at_mut(z).write(1, 5);
        assert_eq!(rf.array("zeta").read(1), 5, "index and name reach one array");
        rf.declare("beta", 1);
        rf.declare("zeta", 3);
        assert_eq!(rf.index_of("zeta"), Some(z), "new and redeclared names keep indices");
        assert_eq!(rf.at_mut(z).len(), 3);
        assert_eq!(rf.index_of("nope"), None);
        assert_eq!(rf.names().collect::<Vec<_>>(), vec!["alpha", "beta", "zeta"]);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_array_panics() {
        RegisterFile::new().array("nope");
    }
}
