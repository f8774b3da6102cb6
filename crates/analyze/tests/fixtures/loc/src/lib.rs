//! Line-ratchet fixture: `expected.txt` pins how many lines count.

/// Doc comments do not count.
pub fn counted(x: u32) -> u32 {
    // Nor do comment-only lines.
    let y = x + 1; // a trailing comment leaves the line counted

    /* Block comments
       do not count. */
    let s = "a literal
spanning
three lines";
    y + s.len() as u32
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_regions_do_not_count() {
        assert_eq!(super::counted(1), 26);
    }
}

pub const TAIL: u32 = 1;
