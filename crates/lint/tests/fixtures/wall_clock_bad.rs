//! Fixture: direct clock reads in library code. All three should trip.

use std::time::{Instant, SystemTime};

pub fn stamp() -> Instant {
    Instant::now()
}

pub fn wall() -> SystemTime {
    SystemTime::now()
}

pub fn since(start: Instant) -> std::time::Duration {
    start.elapsed()
}
