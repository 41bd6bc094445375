module expensive/bench

go 1.21

require expensive v0.0.0

replace expensive => ../
