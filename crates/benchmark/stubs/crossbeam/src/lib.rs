//! Empty offline stand-in for `crossbeam` (see ../README.md).
