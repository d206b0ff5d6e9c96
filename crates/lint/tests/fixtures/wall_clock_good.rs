//! Fixture: clock reads through the seam, in strings, in comments, or
//! in test code are all fine. Instant::now() in this comment is fine.

pub fn through_the_seam() -> std::time::Instant {
    sns_ops::clock::now()
}

pub fn since(start: std::time::Instant) -> std::time::Duration {
    sns_ops::clock::elapsed(start)
}

pub fn documented() -> &'static str {
    "call sns_ops::clock::now() instead of Instant::now()"
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_read_the_clock() {
        let t = std::time::Instant::now();
        assert!(t.elapsed().as_secs() < 1_000);
    }
}
