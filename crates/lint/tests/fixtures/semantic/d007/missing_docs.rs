//@ crate: core
//@ path: crates/core/src/bad_d007.rs

pub struct Naked { //~ D007
    /// Documented fields do not rescue an undocumented item.
    pub count: usize,
}

/// Documented struct: fine.
pub struct Fine {
    inner: u32,
}

pub fn naked_fn() -> u32 { //~ D007
    7
}

#[derive(Debug)]
pub enum Bare { //~ D007
    One,
}

/// Attributes between the doc comment and the item are fine.
#[derive(Debug)]
pub enum Covered {
    Two,
}

pub(crate) fn internal() -> &'static Fine {
    unreachable_helper()
}

fn unreachable_helper() -> &'static Fine {
    &Fine { inner: 0 }
}
