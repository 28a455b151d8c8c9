package lint

// All returns every reprolint analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		DroppedErr,
		WallClock,
		WireBounds,
		LockedSend,
	}
}
