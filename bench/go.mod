module routebricks/bench

go 1.23

require routebricks v0.0.0

replace routebricks => ../
