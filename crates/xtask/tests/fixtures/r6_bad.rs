//! R6 bad: reaches past the executor into the kernel spine, and
//! resurrects a retired controlled entry point.

pub fn bypasses_the_plan(db: &fpm::TransactionDb, minsup: u64) -> bool {
    let cfg = lcm::LcmConfig::all();
    let mut probe = memsim::NullProbe;
    let prepared = lcm::LcmSpine::prepare(db, minsup, &cfg, &mut probe);
    let tasks = lcm::LcmSpine::root_tasks(&prepared);
    let control = fpm::MineControl::unlimited();
    let mut sink = fpm::CountSink::default();
    let (_, complete) =
        lcm::LcmSpine::mine_tasks(&prepared, &tasks, &mut probe, &control, &mut sink);
    complete
}

pub fn resurrects_dead_api(db: &fpm::TransactionDb, minsup: u64) {
    let control = fpm::MineControl::unlimited();
    let mut sink = fpm::CountSink::default();
    lcm::mine_controlled(db, minsup, &lcm::LcmConfig::all(), &control, &mut sink);
}
