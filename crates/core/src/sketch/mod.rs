//! The 2-level hash sketch synopsis (§3.1) and its elementary property
//! checks (§3.2), plus the compact insert-only bit variant.

mod bit;
mod coins;
mod checks;
mod diagnostics;
pub(crate) mod two_level;

pub use bit::BitSketch;
pub use checks::{
    identical_singleton_bucket, singleton_bucket, singleton_levels, singleton_union_bucket,
    singleton_union_bucket_many, singleton_union_levels,
};
pub use diagnostics::LevelHistogram;
pub use two_level::TwoLevelSketch;
