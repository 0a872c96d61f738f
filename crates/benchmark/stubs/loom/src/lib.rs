//! Empty offline stand-in for `loom` (see ../README.md).
