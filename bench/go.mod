module bypassyield/bench

go 1.22

require bypassyield v0.0.0

replace bypassyield => ../
