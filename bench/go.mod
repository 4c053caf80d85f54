module radiv/bench

go 1.22

require radiv v0.0.0

replace radiv => ../
