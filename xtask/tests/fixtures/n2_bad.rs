// N2 fixture (bad): a state that owns an epoch-keyed cache commits
// into a SlotQueue without bumping its link-state epoch — the cache
// would serve stale shortest paths. Must fire ES-A020.
pub fn touch(state: &mut SlottedState) {
    state.epoch += 1;
}

pub fn place(q: &mut SlotQueue, slot: Slot) {
    q.commit(slot);
}
