package core

// SkiRental is the classic rent-to-buy accumulator of Section 5.1,
// the building block of OnlineBY: rent (bypass) as long as the total
// paid in rental costs does not match or exceed the purchase (fetch)
// cost, then buy. With uniform rents the algorithm pays at most twice
// the offline optimum; OnlineBY runs one instance per object with
// rents equal to query yields.
type SkiRental struct {
	// BuyCost is the one-time purchase cost.
	BuyCost float64

	paid   float64
	bought bool
}

// Bought reports whether the purchase has been made.
func (s *SkiRental) Bought() bool { return s.bought }

// Trip presents the next trip with the given rental cost and returns
// the action taken: true means buy (the trip and all future trips are
// free), false means rent at the given cost. Once bought, all
// subsequent trips return true at no cost.
func (s *SkiRental) Trip(rent float64) (buy bool) {
	if s.bought {
		return true
	}
	if s.paid >= s.BuyCost {
		s.bought = true
		return true
	}
	s.paid += rent
	return false
}

// Cost returns the total cost incurred so far: rents paid plus the
// purchase cost if bought.
func (s *SkiRental) Cost() float64 {
	if s.bought {
		return s.paid + s.BuyCost
	}
	return s.paid
}

// SkiRentalOPT returns the offline-optimal cost for a trip sequence
// with the given rental costs and buy cost: the cheaper of renting
// every trip and buying before the first trip.
func SkiRentalOPT(rents []float64, buyCost float64) float64 {
	var total float64
	for _, r := range rents {
		total += r
	}
	if buyCost < total {
		return buyCost
	}
	return total
}
