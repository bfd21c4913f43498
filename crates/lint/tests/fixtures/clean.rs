// Fixture: one lock, released before the blocking call — lint-clean.
use std::sync::Mutex;
use std::time::Duration;

pub fn settle(state: &Mutex<u64>) {
    let pause = *state.lock().unwrap();
    std::thread::sleep(Duration::from_millis(pause));
}
