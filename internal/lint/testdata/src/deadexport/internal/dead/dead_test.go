package dead

import "testing"

// TestUses is the only user of most exports above; test files never count.
func TestUses(t *testing.T) {
	var d DeadType = DeadConst
	_ = OnlyTests() + SelfOnly(DeadVar) + int(d)
	Impl{}.Unused()
	Hook()
}
