//go:build !taskpoison

package sim

// Poison is set by the taskpoison build tag. Pools that recycle a
// record when its life ends (tasks, remote attempts, DAG job records)
// poison it and never reuse it when Poison is true, so a read after
// release changes results instead of seeing a later record. Normal
// builds compile the poisoning away.
const Poison = false
