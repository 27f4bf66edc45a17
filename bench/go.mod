// The benchmark is a module of its own so that the root module's build
// and test commands never depend on it; the replace directive points it
// at the checkout it sits in, whose internal packages it may import
// because its path lies under the root module's.
module paradigm/bench

go 1.22

require paradigm v0.0.0

replace paradigm => ../
