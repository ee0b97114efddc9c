//go:build taskpoison

package sim

// Poison is true in a taskpoison build; see poison_off.go.
const Poison = true
